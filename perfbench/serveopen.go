package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/wht"
	facade "repro/wht"
)

// serve-open: seeded Poisson arrivals at a fixed rate into an in-process
// whtserved on a unix socket over two client connections, sizes 2^10 and
// 2^12; then a short closed-loop phase measures the server's capacity.
const (
	// serveRate is the offered load in requests per second: about a fifth
	// of the closed-loop capacity, and the highest rate at which the
	// in-process generator still sends on time on a two-vCPU host.
	serveRate    = 2000.0
	serveSLOMs   = 20.0 // latency limit, from the due time, for slo_share
	serveConns   = 2
	servePool    = 32  // distinct inputs per size class
	serveWindow  = 64  // requests each connection keeps in flight in the capacity phase
	capacityPart = 0.5 // share of the run spent measuring capacity
	// lateLimit is how far behind its due time a send may go before it
	// counts as late.  Go's timers wake about 1.1 ms after a sub-ms
	// sleep on Linux, so every on-time send is up to that late.
	lateLimit = 2 * time.Millisecond
)

var serveSizes = []int{10, 12}

// arrival is one scheduled request.
type arrival struct {
	at         time.Duration // due time after the start of the phase
	class, idx int           // size class and pool input
	conn       int
}

// verdict is the checked fate of one request.
type verdict int

const (
	answered    verdict = iota // StatusOK with the bitwise-exact transform
	wrongAnswer                // StatusOK with any other data
	refused                    // any other status: rejected, deadline, fault, shutdown
	lost                       // connection error
)

// outcome is what became of one scheduled request.
type outcome struct {
	late    time.Duration // send time minus due time
	fromDue time.Duration // response time minus due time
	rtt     time.Duration // response time minus send time
	v       verdict
}

// poisson draws a seeded Poisson schedule of rate arrivals per second
// over dur.
func poisson(rng *rand.Rand, rate float64, dur time.Duration, classes, pool, conns int) []arrival {
	var out []arrival
	t := 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, class: rng.IntN(classes), idx: rng.IntN(pool), conn: i % conns})
	}
}

// openLoop sends every arrival at its due time, whether or not earlier
// ones have been answered, and waits for all answers.  Traced, each
// request is a "serve.request" span from its due time with a
// "serve.Client.Transform" child from the actual send.  stall, when set,
// runs before each send (tests use it to make the generator late).
func openLoop(arrivals []arrival, send func(a arrival) verdict, tr *tracer, stall func(i int)) []outcome {
	out := make([]outcome, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for i, a := range arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if stall != nil {
			stall(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Now()
			v := send(a)
			done := time.Now()
			out[i] = outcome{late: sent.Sub(due), fromDue: done.Sub(due), rtt: done.Sub(sent), v: v}
			if tr != nil {
				id := tr.id()
				tr.record(id, uint64(i), "serve.Client.Transform", sent, done)
				tr.add(id, 0, uint64(i), "serve.request", due, done)
			}
		}()
	}
	wg.Wait()
	return out
}

// servePools holds the inputs of each size class and their transforms.
type servePools struct {
	in, ref [][][]float64 // [class][idx]
	corrupt atomic.Bool   // tests only: change one element of the next answer
}

func newServePools(seed uint64, sizes []int) *servePools {
	p := &servePools{in: make([][][]float64, len(sizes)), ref: make([][][]float64, len(sizes))}
	for c, n := range sizes {
		for i := 0; i < servePool; i++ {
			x := seeded(newStream(seed, uint64(c*servePool+i)), 1<<n)
			y := append([]float64(nil), x...)
			wht.Reference(y)
			p.in[c] = append(p.in[c], x)
			p.ref[c] = append(p.ref[c], y)
		}
	}
	return p
}

// exact reports whether got is bitwise the transform of pool input (c, i).
func (p *servePools) exact(c, i int, got []float64) bool {
	want := p.ref[c][i]
	if len(got) != len(want) {
		return false
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return false
		}
	}
	return true
}

// transform sends pool input (c, i) on cl and checks the answer.
func (p *servePools) transform(cl *serve.Client, c, i int) verdict {
	res, err := cl.Transform(p.in[c][i], 0)
	if err == nil && len(res.Data) > 0 && p.corrupt.CompareAndSwap(true, false) {
		res.Data[0] = -res.Data[0] - 1
	}
	switch {
	case err != nil:
		return lost
	case res.Status != serve.StatusOK:
		return refused
	case !p.exact(c, i, res.Data):
		return wrongAnswer
	}
	return answered
}

// count books one checked request.
func (r *result) count(v verdict) {
	r.attempted++
	if v != answered {
		r.failed++
	}
	if v == wrongAnswer {
		r.wrong++
	}
}

// daemon is one in-process server with its listener and clients.
type daemon struct {
	srv     *serve.Server
	done    chan error
	clients []*serve.Client
	sock    string
}

// bootDaemon starts a server warmed for sizes on a unix socket and dials
// conns clients.
func bootDaemon(sock string, sizes []int, conns int) (*daemon, error) {
	os.Remove(sock)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  serve.NewServer(serve.Config{WarmSizes: sizes, Logf: func(string, ...any) {}}),
		done: make(chan error, 1),
		sock: sock,
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	for i := 0; i < conns; i++ {
		cl, err := serve.Dial("unix", sock)
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, cl)
	}
	return d, nil
}

// close stops the clients and the server and waits for Serve to return.
func (d *daemon) close() error {
	for _, cl := range d.clients {
		cl.Close()
	}
	d.srv.Close()
	err := <-d.done
	os.Remove(d.sock)
	return err
}

func serveOpen(cfg config, tr *tracer) (*result, error) {
	sizes, rate := serveSizes, serveRate
	if cfg.tiny {
		sizes, rate = []int{6, 8}, 500
	}
	pools := newServePools(cfg.seed, sizes)
	pools.corrupt.Store(cfg.corrupt)
	sock := filepath.Join(cfg.outDir, fmt.Sprintf("serve-%d.sock", os.Getpid()))
	r := newResult()
	warm := func(d *daemon) {
		for _, cl := range d.clients {
			for c := range sizes {
				r.count(pools.transform(cl, c, 0))
			}
		}
	}

	// Set-up: cold compiles of the warm sizes, server boot, dial, and
	// one request per size class on each connection.
	var setupS []float64
	var d *daemon
	compileMs := 0.0
	for rep := 0; rep < cfg.setupReps; rep++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		exec.ResetTunedPlans()
		start := time.Now()
		for _, n := range sizes {
			exec.ForSize(n)
		}
		compileMs = ms(time.Since(start))
		var err error
		if d, err = bootDaemon(sock, sizes, serveConns); err != nil {
			return nil, err
		}
		warm(d)
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer d.close()

	// Open loop.
	openDur := time.Duration(float64(cfg.dur) * (1 - capacityPart))
	rng := rand.New(rand.NewPCG(cfg.seed, 2))
	arrivals := poisson(rng, rate, openDur, len(sizes), servePool, serveConns)
	m0 := d.srv.Metrics()
	outs := openLoop(arrivals, func(a arrival) verdict {
		return pools.transform(d.clients[a.conn], a.class, a.idx)
	}, tr, nil)
	m1 := d.srv.Metrics()

	var fromDue, rtt, late []float64
	good, lateN := 0, 0
	for _, o := range outs {
		r.count(o.v)
		if o.v == answered && ms(o.fromDue) <= serveSLOMs {
			good++
		}
		if o.late > lateLimit {
			lateN++
		}
		fromDue = append(fromDue, ms(o.fromDue))
		rtt = append(rtt, ms(o.rtt))
		late = append(late, ms(o.late))
	}

	// Capacity: a closed loop of serveWindow requests in flight per
	// connection for the rest of the run, as elements answered exactly
	// per second.
	capDur := cfg.dur - openDur
	capElems := 0.0
	var mu sync.Mutex
	var wg sync.WaitGroup
	capStart := time.Now()
	for ci, cl := range d.clients {
		for w := 0; w < serveWindow; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(cfg.seed, uint64(3+ci*serveWindow+w)))
				own, elems := newResult(), 0.0
				for time.Since(capStart) < capDur {
					c, i := rng.IntN(len(sizes)), rng.IntN(servePool)
					v := pools.transform(cl, c, i)
					own.count(v)
					if v == answered {
						elems += float64(int(1) << sizes[c])
					}
				}
				mu.Lock()
				defer mu.Unlock()
				r.attempted += own.attempted
				r.failed += own.failed
				r.wrong += own.wrong
				capElems += elems
			}()
		}
	}
	wg.Wait()
	capSec := time.Since(capStart).Seconds()

	r.set("setup_s", quantile(setupS, 0.5), "s")
	r.set("melem_s", capElems/capSec/1e6, "Melem/s")
	r.set("op_p50_ms", quantile(rtt, 0.5), "ms")
	r.set("req_p50_ms", quantile(fromDue, 0.5), "ms")
	r.set("slo_share", float64(good)/float64(len(arrivals)), "ratio")
	r.timed("req_from_due", fromDue)
	r.timed("rtt", rtt)
	r.timed("gen_late", late)
	if tr == nil {
		return r, nil
	}

	st := exec.DefaultCacheStats() // since the last set-up purged the cache
	r.layer("serve.accepted", float64(m1.Accepted-m0.Accepted), "count")
	r.layer("serve.ok", float64(m1.OK-m0.OK), "count")
	r.layer("serve.rejected", float64(m1.Rejected-m0.Rejected), "count")
	r.layer("serve.deadline", float64(m1.DeadlineMisses-m0.DeadlineMisses), "count")
	r.layer("serve.faults", float64(m1.Faults-m0.Faults), "count")
	lane := float64(m1.BatchedVecs-m0.BatchedVecs) / float64(max(m1.Batches-m0.Batches, 1))
	r.layer("serve.lane_mean", lane, "vectors")
	r.layer("serve.rtt_p50_ms", quantile(rtt, 0.5), "ms")
	r.layer("serve.req_p99_ms", quantile(fromDue, 0.99), "ms")
	full := 0
	for _, n := range sizes {
		if d.srv.LadderLevel(n) == "full" {
			full++
		}
	}
	r.layer("serve.ladder_full", float64(full), "count")
	batch, err := replayBatches(pools, sizes, max(int(math.Round(lane)), 1))
	if err != nil {
		return nil, err
	}
	r.layer("exec.batch.op_ms", batch, "ms")
	r.layer("serve.exec_share", batch/quantile(fromDue, 0.5), "ratio")
	r.layer("gen.late_share", float64(lateN)/float64(len(arrivals)), "ratio")
	r.layer("gen.late_p99_ms", quantile(late, 0.99), "ms")
	r.layer("exec.cache.hits", float64(st.Hits), "count")
	r.layer("exec.cache.misses", float64(st.Misses), "count")
	r.layer("exec.cache.evictions", float64(st.Evictions), "count")
	r.layer("plan.compile_ms", compileMs, "ms")
	return r, nil
}

// replayBatches times wht.RunBatchParallelCtx — the call the server's
// batch tier makes — at the observed mean lane width, as the median over
// repetitions averaged over the size classes.
func replayBatches(pools *servePools, sizes []int, lane int) (float64, error) {
	total := 0.0
	for c, n := range sizes {
		s := exec.ForSize(n)
		xs := make([][]float64, lane)
		for i := range xs {
			xs[i] = make([]float64, 1<<n)
		}
		var samples []float64
		for rep := 0; rep < 21; rep++ {
			for i := range xs {
				copy(xs[i], pools.in[c][i%servePool])
			}
			start := time.Now()
			if err := facade.RunBatchParallelCtx(context.Background(), s, xs, 0); err != nil {
				return 0, err
			}
			samples = append(samples, ms(time.Since(start)))
			for i := range xs {
				if !pools.exact(c, i%servePool, xs[i]) {
					return 0, fmt.Errorf("batch replay n=%d: wrong output", n)
				}
			}
		}
		total += quantile(samples, 0.5)
	}
	return total / float64(len(sizes)), nil
}
