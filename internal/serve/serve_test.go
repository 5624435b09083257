package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/tune"
	"repro/internal/wisdom"
)

// startServer boots a server on a unix socket in a temp dir and returns
// it with its address.  Cleanup closes the server and asserts the
// serving contract's accounting: every response the server wrote is
// classified, and nothing was admitted without being answered or
// rejected.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	addr := filepath.Join(t.TempDir(), "wht.sock")
	srv := NewServer(cfg)
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, addr
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func randVec(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0xda3e39cb94b95bdb))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	return x
}

// wantWHT computes the reference transform via the sequential executor.
func wantWHT(t *testing.T, x []float64) []float64 {
	t.Helper()
	y := append([]float64(nil), x...)
	logN := 0
	for 1<<uint(logN) < len(x) {
		logN++
	}
	if err := exec.Run(exec.Compile(plan.Balanced(logN, plan.MaxLeafLog)), y); err != nil {
		t.Fatal(err)
	}
	return y
}

func assertVec(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("result[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestServeTransformCorrectness(t *testing.T) {
	_, addr := startServer(t, Config{WarmSizes: []int{6, 10}})
	c := dialT(t, addr)
	for _, logN := range []int{1, 6, 10, 13} {
		x := randVec(1<<logN, uint64(logN))
		want := wantWHT(t, x)
		res, err := c.Transform(x, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", logN, err)
		}
		if res.Status != StatusOK {
			t.Fatalf("n=%d: status %v", logN, res.Status)
		}
		assertVec(t, res.Data, want)
	}
}

// intVec returns a vector of small integers: every transform of it is
// exact in float64, so any execution tier must reproduce the reference
// bit for bit.
func intVec(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.IntN(17) - 8)
	}
	return x
}

// sameBits reports whether got and want are equal bit for bit.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// stallFirstBatch arms the serve.exec point to hold srv's first batch
// until the returned release is called, and to record every batch's
// lane width.  started closes once the first batch is executing.  The
// batcher counts a batch before the point fires and runs one batch at
// a time per class, so with a single class the rise in BatchedVecs
// since the previous fire is the width of the batch now firing.
func stallFirstBatch(t *testing.T, srv *Server) (started <-chan struct{}, release func(), widths func() []uint64) {
	t.Helper()
	start, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	var mu sync.Mutex
	var ws []uint64
	var seen uint64
	faultinject.Set(faultinject.ServeExec, func() {
		vecs := srv.Metrics().BatchedVecs
		mu.Lock()
		ws = append(ws, vecs-seen)
		seen = vecs
		first := len(ws) == 1
		mu.Unlock()
		if first {
			close(start)
			<-hold
		}
	})
	// Cleanups run last-in first-out: this one frees a held batcher
	// before startServer's cleanup waits for it in Close.
	t.Cleanup(func() {
		release()
		faultinject.Reset()
	})
	return start, release, func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), ws...)
	}
}

// waitAccepted blocks until size class n has admitted want requests.
func waitAccepted(t *testing.T, srv *Server, n int, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		sc := srv.classes[n]
		srv.mu.Unlock()
		if sc != nil && sc.accepted.Load() >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("class n=%d did not admit %d requests", n, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestServeCoalescing pins group commit.  One request's batch is held
// while k more queue behind it; on release the backlog drains in lanes
// of at most MaxLane, each taking everything queued, and every answer
// is bitwise-correct.  No timer decides a batch, so the widths are
// exact.
func TestServeCoalescing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		lane, k int
		widths  []uint64
	}{
		{"backlog-fits-lane", 8, 8, []uint64{1, 8}},
		{"backlog-over-two-lanes", 4, 2*4 + 1, []uint64{1, 4, 4, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const logN = 9
			srv, addr := startServer(t, Config{MaxLane: tc.lane})
			started, release, widths := stallFirstBatch(t, srv)
			c := dialT(t, addr)
			xs := make([][]float64, tc.k+1)
			wants := make([][]float64, tc.k+1)
			for i := range xs {
				xs[i] = intVec(1<<logN, uint64(i))
				wants[i] = wantWHT(t, xs[i])
			}
			var wg sync.WaitGroup
			errs := make(chan error, tc.k+1)
			send := func(i int) {
				defer wg.Done()
				res, err := c.Transform(xs[i], 0)
				switch {
				case err != nil:
					errs <- err
				case res.Status != StatusOK:
					errs <- fmt.Errorf("request %d: status %v", i, res.Status)
				case !sameBits(res.Data, wants[i]):
					errs <- fmt.Errorf("request %d: transform not bitwise equal to the reference", i)
				}
			}
			wg.Add(1)
			go send(0)
			<-started
			for i := 1; i <= tc.k; i++ {
				wg.Add(1)
				go send(i)
			}
			waitAccepted(t, srv, logN, uint64(tc.k+1))
			release()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			got := widths()
			for _, w := range got {
				if w > uint64(tc.lane) {
					t.Fatalf("batch of %d vectors exceeds MaxLane %d (widths %v)", w, tc.lane, got)
				}
			}
			if !slices.Equal(got, tc.widths) {
				t.Fatalf("batch widths %v, want %v", got, tc.widths)
			}
			m := srv.Metrics()
			if m.Batches != uint64(len(tc.widths)) || m.BatchedVecs != uint64(tc.k+1) {
				t.Fatalf("%d batches carried %d vectors, want %d carrying %d",
					m.Batches, m.BatchedVecs, len(tc.widths), tc.k+1)
			}
			if m.OK != m.Accepted || m.Responded != m.Accepted {
				t.Fatalf("accepted %d, ok %d, responded %d: want all equal", m.Accepted, m.OK, m.Responded)
			}
		})
	}
}

// TestServeConcurrentCorrectness floods one size class from many
// goroutines and checks that every request is answered bit for bit
// correctly and that the server's books balance: responses ==
// admissions, nothing dropped silently.
func TestServeConcurrentCorrectness(t *testing.T) {
	srv, addr := startServer(t, Config{})
	const (
		workers = 32
		perW    = 8
		logN    = 9
	)
	clients := make([]*Client, 4)
	for i := range clients {
		clients[i] = dialT(t, addr)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for i := 0; i < perW; i++ {
				x := intVec(1<<logN, uint64(w*1000+i))
				want := wantWHT(t, x)
				res, err := c.Transform(x, 0)
				if err != nil {
					errCh <- err
					return
				}
				if res.Status != StatusOK {
					errCh <- errors.New("status " + res.Status.String())
					return
				}
				if !sameBits(res.Data, want) {
					errCh <- errors.New("wrong transform under concurrency")
					return
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	m := srv.Metrics()
	if m.OK != workers*perW {
		t.Fatalf("OK = %d, want %d", m.OK, workers*perW)
	}
	if m.Responded != m.Accepted {
		t.Fatalf("dropped without response: accepted %d, responded %d", m.Accepted, m.Responded)
	}
	t.Logf("coalesced %d vectors into %d batches", m.BatchedVecs, m.Batches)
}

// TestServeBackpressure pins the executor with injected latency and
// floods a two-deep queue: the overflow must come back as StatusRejected
// with a retry hint, not buffer without bound, and the books must still
// balance.  The hint is the class's last measured batch time, so once
// a stalled batch has finished it must cover the injected stall.
func TestServeBackpressure(t *testing.T) {
	const stall = 30 * time.Millisecond
	faultinject.Set(faultinject.ServeExec, faultinject.Sleep(stall))
	defer faultinject.Reset()
	srv, addr := startServer(t, Config{
		QueueDepth: 2,
		MaxLane:    2,
	})
	var mu sync.Mutex
	var rejected, ok int
	var hint, maxHint time.Duration
	flood := func(workers, perW int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c, err := Dial("unix", addr)
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for i := 0; i < perW; i++ {
					res, err := c.Transform(randVec(1<<6, uint64(w)), 0)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					switch res.Status {
					case StatusRejected:
						rejected++
						hint = res.RetryAfter
						maxHint = max(maxHint, hint)
					case StatusOK:
						ok++
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}
	flood(16, 4)
	if rejected == 0 {
		t.Fatal("flooding a depth-2 queue produced no rejections")
	}
	if hint <= 0 {
		t.Fatal("rejection carried no retry-after hint")
	}
	if ok == 0 {
		t.Fatal("backpressure starved every request")
	}
	// A batch has finished (ok > 0), and every batch sleeps the stall.
	// The lane and the queue hold four requests, so a burst of eight
	// overflows while the next batch runs, and those rejections carry
	// the measured batch time.
	flood(8, 1)
	if maxHint < stall {
		t.Fatalf("largest retry-after hint %v, want at least the %v batch stall", maxHint, stall)
	}
	m := srv.Metrics()
	if m.Responded != m.Accepted {
		t.Fatalf("dropped without response: accepted %d, responded %d", m.Accepted, m.Responded)
	}
	t.Logf("ok=%d rejected=%d hint=%v max hint=%v", ok, rejected, hint, maxHint)
}

// TestServeDeadline checks both enforcement sites: a request whose
// deadline expires while the executor is pinned gets StatusDeadline,
// and a request with generous headroom still succeeds afterwards.
func TestServeDeadline(t *testing.T) {
	faultinject.Set(faultinject.ServeExec, faultinject.Sleep(30*time.Millisecond))
	srv, addr := startServer(t, Config{})
	c := dialT(t, addr)

	res, err := c.Transform(randVec(1<<8, 1), 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDeadline {
		t.Fatalf("tight deadline under a pinned executor: status %v, want %v", res.Status, StatusDeadline)
	}

	faultinject.Reset()
	res, err = c.Transform(randVec(1<<8, 2), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOK {
		t.Fatalf("after healing: status %v", res.Status)
	}
	if srv.Metrics().DeadlineMisses == 0 {
		t.Fatal("deadline miss not counted")
	}
}

// TestServeKernelFaultIsolation injects a kernel panic into one batch:
// that batch's requests get StatusFault, the process survives, and the
// very next request on the same connection is served correctly.
func TestServeKernelFaultIsolation(t *testing.T) {
	faultinject.Set(faultinject.ExecChunk, faultinject.PanicFirst(1, "injected kernel fault"))
	defer faultinject.Reset()
	srv, addr := startServer(t, Config{})
	c := dialT(t, addr)

	res, err := c.Transform(randVec(1<<10, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFault {
		t.Fatalf("poisoned batch: status %v, want %v", res.Status, StatusFault)
	}

	x := randVec(1<<10, 2)
	want := wantWHT(t, x)
	res, err = c.Transform(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOK {
		t.Fatalf("request after contained fault: status %v", res.Status)
	}
	assertVec(t, res.Data, want)
	if srv.Metrics().Faults != 1 {
		t.Fatalf("faults = %d, want 1", srv.Metrics().Faults)
	}
}

// TestServeDegradationLadder drives repeated faults through a size
// class and watches it walk full -> scalar -> sequential, then proves
// the floor level still serves correct transforms.
func TestServeDegradationLadder(t *testing.T) {
	// Four batch executions panic (at the serve.exec point, which fires
	// once per batch at every ladder level), then the class heals.  With
	// FaultLadderTrips=2 that is exactly two trips at full and two at
	// scalar.
	faultinject.Set(faultinject.ServeExec, faultinject.PanicFirst(4, "repeated kernel fault"))
	defer faultinject.Reset()
	srv, addr := startServer(t, Config{FaultLadderTrips: 2})
	c := dialT(t, addr)

	const logN = 8
	for i := 0; i < 4; i++ {
		res, err := c.Transform(randVec(1<<logN, uint64(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusFault {
			t.Fatalf("fault %d: status %v, want %v", i, res.Status, StatusFault)
		}
	}
	if got := srv.LadderLevel(logN); got != "sequential" {
		t.Fatalf("ladder level after 4 faults = %q, want %q", got, "sequential")
	}
	if got := srv.Metrics().Degradations; got != 2 {
		t.Fatalf("degradations = %d, want 2", got)
	}

	x := randVec(1<<logN, 99)
	want := wantWHT(t, x)
	res, err := c.Transform(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOK {
		t.Fatalf("floor level: status %v", res.Status)
	}
	assertVec(t, res.Data, want)
	// The class stays degraded: kernels do not heal by luck.
	if got := srv.LadderLevel(logN); got != "sequential" {
		t.Fatalf("ladder re-escalated to %q after one success", got)
	}
}

// TestServeLadderReescalation walks a class down the ladder under a
// persistent fault, proves the canary probes cannot re-escalate it
// while the fault lasts, then heals the fault and watches a clean
// canary earn the level back.
func TestServeLadderReescalation(t *testing.T) {
	faultinject.Set(faultinject.ServeExec, faultinject.PanicFirst(1000, "persistent kernel fault"))
	defer faultinject.Reset()
	srv, addr := startServer(t, Config{
		FaultLadderTrips: 2,
		ProbeInterval:    10 * time.Millisecond,
	})
	c := dialT(t, addr)

	const logN = 8
	for i := 0; i < 2; i++ {
		res, err := c.Transform(randVec(1<<logN, uint64(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusFault {
			t.Fatalf("fault %d: status %v, want %v", i, res.Status, StatusFault)
		}
	}
	if got := srv.LadderLevel(logN); got != "scalar" {
		t.Fatalf("ladder level after 2 faults = %q, want %q", got, "scalar")
	}

	// Canaries run every 10ms but fault like everything else: several
	// probe intervals later the class must still be down.
	time.Sleep(60 * time.Millisecond)
	if got := srv.LadderLevel(logN); got != "scalar" {
		t.Fatalf("class re-escalated to %q while the fault persisted", got)
	}
	if got := srv.Metrics().Reescalations; got != 0 {
		t.Fatalf("reescalations = %d while the fault persisted", got)
	}

	// Heal the fault: the next clean canary steps the class back up.
	faultinject.Reset()
	deadline := time.Now().Add(5 * time.Second)
	for srv.LadderLevel(logN) != "full" {
		if time.Now().After(deadline) {
			t.Fatalf("class stuck at %q after the fault healed", srv.LadderLevel(logN))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Metrics().Reescalations; got == 0 {
		t.Fatal("re-escalation not counted")
	}

	// The recovered tier serves correct transforms.
	x := randVec(1<<logN, 99)
	want := wantWHT(t, x)
	res, err := c.Transform(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOK {
		t.Fatalf("recovered tier: status %v", res.Status)
	}
	assertVec(t, res.Data, want)
}

// TestServeBadRequest sends structurally invalid frames and expects
// StatusBadRequest without losing the connection.
func TestServeBadRequest(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A frame with a bogus protocol version.
	buf := encodeRequest(requestFrame{ID: 7, LogN: 4, Data: make([]float64, 16)})
	buf[4] = 42
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	hdr, payload, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponse(hdr, payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadRequest || resp.ID != 7 {
		t.Fatalf("bad version: status %v id %d", resp.Status, resp.ID)
	}

	// The connection survives: a healthy frame on the same stream works.
	if _, err := conn.Write(encodeRequest(requestFrame{ID: 8, LogN: 4, Data: make([]float64, 16)})); err != nil {
		t.Fatal(err)
	}
	hdr, payload, err = readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err = decodeResponse(hdr, payload); err != nil || resp.Status != StatusOK || resp.ID != 8 {
		t.Fatalf("frame after bad request: %v status %v id %d", err, resp.Status, resp.ID)
	}
}

// TestServeCorruptWisdomBoot scrambles a wisdom file, boots a server on
// it, and checks the file was quarantined (renamed aside) while the
// server still serves correct transforms on model-planned schedules.
func TestServeCorruptWisdomBoot(t *testing.T) {
	tune.Reset()
	defer tune.Reset()

	dir := t.TempDir()
	path := filepath.Join(dir, "wisdom.json")
	w := wisdom.New()
	if _, err := w.Record(wisdom.Float64, plan.Balanced(10, 8), 1000); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.ScrambleFile(path); err != nil {
		t.Fatal(err)
	}

	_, addr := startServer(t, Config{WisdomPath: path, WarmSizes: []int{10}})
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt wisdom still in place: %v", err)
	}
	if _, err := os.Stat(path + wisdom.QuarantineSuffix); err != nil {
		t.Fatalf("quarantine file: %v", err)
	}

	c := dialT(t, addr)
	x := randVec(1<<10, 5)
	want := wantWHT(t, x)
	res, err := c.Transform(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOK {
		t.Fatalf("status %v", res.Status)
	}
	assertVec(t, res.Data, want)
}

// TestServeHealthyWisdomBoot is the counterpart: an intact wisdom file
// loads, is NOT quarantined, and its tuned plan serves.
func TestServeHealthyWisdomBoot(t *testing.T) {
	tune.Reset()
	defer tune.Reset()

	path := filepath.Join(t.TempDir(), "wisdom.json")
	w := wisdom.New()
	if _, err := w.Record(wisdom.Float64, plan.Balanced(10, 8), 1000); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}

	_, addr := startServer(t, Config{WisdomPath: path, WarmSizes: []int{10}})
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("healthy wisdom was disturbed: %v", err)
	}
	if _, _, ok := exec.TunedConfigFor(10); !ok {
		t.Fatal("wisdom did not register its tuned plan")
	}
	c := dialT(t, addr)
	x := randVec(1<<10, 6)
	want := wantWHT(t, x)
	res, err := c.Transform(x, 0)
	if err != nil || res.Status != StatusOK {
		t.Fatalf("%v status %v", err, res.Status)
	}
	assertVec(t, res.Data, want)
}

// TestServeShutdownAnswersQueued stalls the executor, queues requests
// behind it, and closes the server: the queued requests must be
// answered (shutdown or deadline status), not silently dropped.
func TestServeShutdownAnswersQueued(t *testing.T) {
	faultinject.Set(faultinject.ServeExec, faultinject.Sleep(50*time.Millisecond))
	defer faultinject.Reset()
	addr := filepath.Join(t.TempDir(), "wht.sock")
	srv := NewServer(Config{Logf: t.Logf, QueueDepth: 64, MaxLane: 1})
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const inflight = 8
	results := make(chan Status, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Transform(randVec(1<<6, uint64(i)), 0)
			if err != nil {
				return // connection torn down before the response: not a silent server-side drop
			}
			results <- res.Status
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let them queue behind the stalled batch
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)
	var shutdown int
	for st := range results {
		switch st {
		case StatusShutdown, StatusOK, StatusDeadline:
			if st == StatusShutdown {
				shutdown++
			}
		default:
			t.Fatalf("unexpected status at shutdown: %v", st)
		}
	}
	if shutdown == 0 {
		t.Fatal("no queued request was answered with StatusShutdown")
	}
}

// TestProtocolRoundTrip pins the wire format: encode -> frame -> decode
// is the identity for both directions.
func TestProtocolRoundTrip(t *testing.T) {
	rf := requestFrame{ID: 0xdeadbeef, LogN: 5, DeadlineUs: 12345, Data: randVec(32, 9)}
	// n = 18 is a 2 MiB payload, read in two chunks.
	for _, req := range []requestFrame{rf, {ID: 3, LogN: 18, DeadlineUs: 9, Data: randVec(1<<18, 5)}} {
		hdr, payload, err := readFrame(bytesReader(encodeRequest(req)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRequest(hdr, payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != req.ID || got.LogN != req.LogN || got.DeadlineUs != req.DeadlineUs {
			t.Fatalf("request header mangled: %+v", got)
		}
		assertVec(t, got.Data, req.Data)
	}

	resp := responseFrame{ID: 0xcafe, Status: StatusOK, LogN: 5, Data: rf.Data}
	hdr, payload, err := readFrame(bytesReader(encodeResponse(resp)))
	if err != nil {
		t.Fatal(err)
	}
	rgot, err := decodeResponse(hdr, payload)
	if err != nil {
		t.Fatal(err)
	}
	if rgot.ID != resp.ID || rgot.Status != resp.Status {
		t.Fatalf("response header mangled: %+v", rgot)
	}
	assertVec(t, rgot.Data, resp.Data)

	// Statuses other than OK carry no payload even when Data is set.
	rej := responseFrame{ID: 1, Status: StatusRejected, RetryAfterUs: 500, Data: rf.Data}
	hdr, payload, err = readFrame(bytesReader(encodeResponse(rej)))
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 0 {
		t.Fatalf("rejection carried %d payload bytes", len(payload))
	}
	rgot, err = decodeResponse(hdr, payload)
	if err != nil || rgot.RetryAfterUs != 500 {
		t.Fatalf("retry hint lost: %v %+v", err, rgot)
	}
}

type sliceReader struct {
	b []byte
}

func bytesReader(b []byte) *sliceReader { return &sliceReader{b} }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, errors.New("EOF")
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestLoadgenSmoke runs a tiny in-process sweep — the same path the
// -loadgen flag and the CI soak use — and checks the report invariants.
func TestLoadgenSmoke(t *testing.T) {
	srv, addr := startServer(t, Config{})
	rep, err := RunLoadgen(LoadgenConfig{
		Network:       "unix",
		Addr:          addr,
		LogN:          8,
		Concurrencies: []int{1, 8},
		Duration:      200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Levels) != 2 {
		t.Fatalf("levels = %d", len(rep.Levels))
	}
	for _, l := range rep.Levels {
		if l.OK == 0 {
			t.Fatalf("concurrency %d completed no requests", l.Concurrency)
		}
		if l.P50Us <= 0 || l.P99Us < l.P50Us {
			t.Fatalf("broken percentiles: p50=%v p99=%v", l.P50Us, l.P99Us)
		}
		if l.Errors != 0 {
			t.Fatalf("connection errors: %d", l.Errors)
		}
	}
	m := srv.Metrics()
	if m.Responded != m.Accepted {
		t.Fatalf("dropped without response: accepted %d responded %d", m.Accepted, m.Responded)
	}
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteText(os.Stderr); err != nil {
		t.Fatal(err)
	}
}

// TestServeMetrics drives a few requests through a size class and
// checks the Prometheus-text snapshot: global counters, per-class
// counters carrying the n label, the ladder gauge, and the
// schedule-cache lines — then the HTTP handler's content type.
func TestServeMetrics(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c := dialT(t, addr)
	x := randVec(1<<8, 7)
	want := wantWHT(t, x)
	for i := 0; i < 3; i++ {
		res, err := c.Transform(x, 0)
		if err != nil {
			t.Fatalf("transform %d: %v", i, err)
		}
		if res.Status != StatusOK {
			t.Fatalf("transform %d: status %v", i, res.Status)
		}
		assertVec(t, res.Data, want)
	}

	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, needle := range []string{
		"# TYPE wht_serve_accepted_total counter",
		"wht_serve_accepted_total 3",
		"wht_serve_ok_total 3",
		"wht_serve_reescalations_total 0",
		`wht_serve_class_accepted_total{n="8"} 3`,
		`wht_serve_class_responded_total{n="8"} 3`,
		`wht_serve_class_faulted_total{n="8"} 0`,
		"# TYPE wht_serve_ladder_level gauge",
		`wht_serve_ladder_level{n="8"} 0`,
		"# TYPE wht_schedule_cache_hits_total counter",
	} {
		if !strings.Contains(body, needle) {
			t.Errorf("metrics snapshot missing %q\n%s", needle, body)
		}
	}

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "wht_serve_accepted_total") {
		t.Fatalf("handler body missing counters:\n%s", rec.Body.String())
	}
}

// TestLoadgenOpenLoop drives a fixed offered rate — the open-loop shape
// that keeps arrivals coming regardless of completions — and checks the
// level bookkeeping: the target rate is recorded, requests complete,
// and the server answered everything it admitted.
func TestLoadgenOpenLoop(t *testing.T) {
	srv, addr := startServer(t, Config{})
	rep, err := RunLoadgen(LoadgenConfig{
		Network:  "unix",
		Addr:     addr,
		LogN:     8,
		RatesRPS: []float64{500},
		Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Levels) != 1 {
		t.Fatalf("levels = %d", len(rep.Levels))
	}
	l := rep.Levels[0]
	if l.TargetRPS != 500 {
		t.Fatalf("target rate lost: %+v", l)
	}
	if l.Concurrency != 0 {
		t.Fatalf("open-loop level reported a worker count: %+v", l)
	}
	if l.OK == 0 {
		t.Fatalf("no requests completed: %+v", l)
	}
	if l.Errors != 0 {
		t.Fatalf("connection errors: %d", l.Errors)
	}
	if l.P50Us <= 0 || l.P99Us < l.P50Us {
		t.Fatalf("broken percentiles: p50=%v p99=%v", l.P50Us, l.P99Us)
	}
	if l.OfferedRPS <= 0 {
		t.Fatalf("offered rate not measured: %+v", l)
	}
	// Everything dispatched was classified somewhere.
	classified := l.OK + l.Rejected + l.Deadline + l.Faults + l.Other + l.Errors
	if classified == 0 {
		t.Fatalf("no request classified: %+v", l)
	}
	m := srv.Metrics()
	if m.Responded != m.Accepted {
		t.Fatalf("dropped without response: accepted %d responded %d", m.Accepted, m.Responded)
	}
}
