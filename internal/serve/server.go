package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codelet"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/tune"
	"repro/internal/wisdom"
)

// Config tunes one Server.  The zero value serves with the defaults
// documented on each field.
type Config struct {
	// MaxLane caps a batch, which takes what is queued when it starts
	// and never waits for more (default exec.SoAMaxLane: the width the
	// SoA tier's amortization saturates at).
	MaxLane int

	// QueueDepth bounds each size class's admission queue (default 4 *
	// MaxLane).  A full queue rejects with StatusRejected and a
	// retry-after hint — bounded buffering is the backpressure story.
	QueueDepth int

	// DefaultDeadline applies to requests that carry none (0 on the
	// wire).  Default 0: no deadline.
	DefaultDeadline time.Duration

	// WisdomPath, when set, loads tuned plans at boot.  A corrupt file is
	// quarantined (renamed path + ".quarantined") and the server boots on
	// model-planned schedules; a foreign file (fingerprint or version
	// mismatch) is left in place and ignored.
	WisdomPath string

	// WarmSizes lists transform log-sizes to compile into the schedule
	// cache before the listener opens, so first requests are not taxed
	// with a compile.
	WarmSizes []int

	// FaultLadderTrips is how many consecutive contained faults a size
	// class tolerates at one degradation level before stepping down
	// (default 2).
	FaultLadderTrips int

	// ProbeInterval is how often a degraded size class sends a
	// synthetic canary batch through the next ladder tier up,
	// re-escalating one level when the canary completes cleanly
	// (default 1m; negative disables probing).  Canaries are
	// server-owned vectors: a canary fault costs no client a response.
	ProbeInterval time.Duration

	// Logf receives operational log lines (default log.Printf; silence
	// with func(string, ...any) {}).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxLane <= 0 {
		c.MaxLane = exec.SoAMaxLane
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxLane
	}
	if c.FaultLadderTrips <= 0 {
		c.FaultLadderTrips = 2
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Minute
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Metrics is a snapshot of a server's counters since construction.
type Metrics struct {
	Accepted       uint64 // requests decoded and admitted to a size class
	Responded      uint64 // responses written (every status)
	OK             uint64 // StatusOK responses
	Rejected       uint64 // backpressure rejections
	DeadlineMisses uint64 // StatusDeadline responses
	Faults         uint64 // StatusFault responses
	BadRequests    uint64 // StatusBadRequest responses
	Batches        uint64 // coalesced batches executed
	BatchedVecs    uint64 // vectors carried by those batches
	Degradations   uint64 // ladder step-downs across all size classes
	Reescalations  uint64 // ladder step-ups earned by clean canary batches
}

type metrics struct {
	accepted, responded, ok, rejected, deadline,
	faults, bad, batches, batchedVecs, degradations,
	reescalations atomic.Uint64
}

func (m *metrics) snapshot() Metrics {
	return Metrics{
		Accepted: m.accepted.Load(), Responded: m.responded.Load(), OK: m.ok.Load(),
		Rejected: m.rejected.Load(), DeadlineMisses: m.deadline.Load(),
		Faults: m.faults.Load(), BadRequests: m.bad.Load(),
		Batches: m.batches.Load(), BatchedVecs: m.batchedVecs.Load(),
		Degradations: m.degradations.Load(), Reescalations: m.reescalations.Load(),
	}
}

// The degradation ladder.  A size class starts at ladderFull and steps
// down after FaultLadderTrips consecutive contained faults at its
// current level; any success resets the trip counter but not the level
// (re-escalating on the next lucky client batch would oscillate).
// Recovery is earned out of band instead: every ProbeInterval a
// degraded class runs a synthetic canary batch through the tier one
// level up, and steps back up only when the canary completes cleanly —
// client traffic never rides an unproven tier.
//
//	ladderFull       — tuned schedule, auto backends, SoA batch + parallel tiers
//	ladderScalar     — scalar-pinned schedule, batch + barrier tiers (sheds the
//	                   SIMD kernels)
//	ladderSequential — scalar-pinned schedule, sequential per-vector execution
//	                   (sheds every pool; one request's fault cannot touch
//	                   another's)
const (
	ladderFull int32 = iota
	ladderScalar
	ladderSequential
	ladderFloor = ladderSequential
)

// ladderName spells a level for logs and reports.
func ladderName(l int32) string {
	switch l {
	case ladderFull:
		return "full"
	case ladderScalar:
		return "scalar"
	case ladderSequential:
		return "sequential"
	}
	return fmt.Sprintf("level(%d)", l)
}

// request is one admitted transform request bound to its connection.
type request struct {
	frame    requestFrame
	deadline time.Time // zero when none
	conn     *serveConn
}

func (r *request) expired(now time.Time) bool {
	return !r.deadline.IsZero() && now.After(r.deadline)
}

// sizeClass is the per-log-size serving state: the bounded admission
// queue its batcher drains, the warm schedules for each ladder level,
// and the class's position on the ladder.
type sizeClass struct {
	n     int
	queue chan *request

	full   *exec.Schedule // tuned/default schedule, auto backends
	scalar *exec.Schedule // scalar-pinned fallback

	level atomic.Int32 // ladder level
	trips atomic.Int32 // consecutive faults at the current level

	// batchNs is the class's most recent batch time: the queue drains
	// at that cadence, so it is the retry-after hint when the queue is full.
	batchNs atomic.Int64

	// Per-class counters behind the /metrics endpoint: admissions to
	// the queue, responses issued by the class machinery (batcher and
	// shutdown drain), queue-full rejections, and fault responses.
	accepted, responded, rejected, faulted atomic.Uint64
}

// respond answers one request on behalf of the class, keeping the
// per-class books.
func (sc *sizeClass) respond(r *request, resp responseFrame) {
	sc.responded.Add(1)
	if resp.Status == StatusFault {
		sc.faulted.Add(1)
	}
	r.conn.respond(resp)
}

// Server is the daemon.  Construct with NewServer, start with Serve (or
// ListenAndServe), stop with Close.
type Server struct {
	cfg Config
	m   metrics

	mu      sync.Mutex
	classes map[int]*sizeClass
	conns   map[*serveConn]struct{}
	ln      net.Listener
	closed  bool

	baseCtx context.Context
	cancel  context.CancelFunc

	// Two pools with distinct shutdown phases: batchers must finish
	// draining their queues (answering StatusShutdown) while the
	// connections are still writable, so Close waits for them BEFORE it
	// tears the connections down and waits for the readers.
	batcherWg sync.WaitGroup
	connWg    sync.WaitGroup
}

// NewServer builds a server, loads wisdom (quarantining a corrupt
// file), and warms the configured size classes.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		classes: make(map[int]*sizeClass),
		conns:   make(map[*serveConn]struct{}),
		baseCtx: ctx,
		cancel:  cancel,
	}
	if cfg.WisdomPath != "" {
		s.loadWisdom(cfg.WisdomPath)
	}
	for _, n := range cfg.WarmSizes {
		if n >= 1 && n <= MaxLogN {
			s.class(n)
		}
	}
	return s
}

// loadWisdom implements the boot policy: load tuned plans; on a corrupt
// file, quarantine it and boot on model-planned schedules; on a foreign
// file, leave it alone and boot on model-planned schedules.  Neither
// failure stops the server.
func (s *Server) loadWisdom(path string) {
	err := tune.LoadWisdom(path)
	switch {
	case err == nil:
		s.cfg.Logf("serve: wisdom loaded from %s", path)
	case errors.Is(err, wisdom.ErrCorrupt):
		q, qerr := wisdom.Quarantine(path)
		if qerr != nil {
			s.cfg.Logf("serve: corrupt wisdom %s could not be quarantined (%v); serving on model-planned schedules", path, qerr)
			return
		}
		s.cfg.Logf("serve: corrupt wisdom quarantined to %s (%v); serving on model-planned schedules", q, err)
	default:
		s.cfg.Logf("serve: wisdom %s not loaded (%v); serving on model-planned schedules", path, err)
	}
}

// class returns the size class for log-size n, creating (and warming)
// it on first use.  It returns nil once the server is closed — no new
// batcher may start after Close has begun waiting for them.
func (s *Server) class(n int) *sizeClass {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc, ok := s.classes[n]; ok {
		return sc
	}
	if s.closed {
		return nil
	}
	sc := &sizeClass{
		n:     n,
		queue: make(chan *request, s.cfg.QueueDepth),
		full:  exec.ForSize(n),
	}
	// The scalar fallback is compiled once at class creation, not on
	// first fault: stepping down the ladder must not stall a hurting
	// size class behind a compile.
	pol := codelet.DefaultPolicy()
	pol.Backend = codelet.ScalarBackend
	sc.scalar = exec.CompileWith(plan.Balanced(n, plan.MaxLeafLog), pol)
	s.batcherWg.Add(1)
	go func() {
		defer s.batcherWg.Done()
		s.batcher(sc)
	}()
	s.classes[n] = sc
	return sc
}

// Metrics returns a snapshot of the server's counters.
func (s *Server) Metrics() Metrics { return s.m.snapshot() }

// LadderLevel reports the degradation level of size class n ("full"
// when the class has never been created).
func (s *Server) LadderLevel(n int) string {
	s.mu.Lock()
	sc, ok := s.classes[n]
	s.mu.Unlock()
	if !ok {
		return ladderName(ladderFull)
	}
	return ladderName(sc.level.Load())
}

// ListenAndServe listens on network/addr ("tcp" or "unix") and serves
// until Close.
func (s *Server) ListenAndServe(network, addr string) error {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close.  It returns nil after a
// clean Close, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("serve: server is closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		sc := &serveConn{conn: conn, srv: s}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.connWg.Add(1)
		go func() {
			defer s.connWg.Done()
			sc.readLoop()
		}()
	}
}

// Close stops the listener, interrupts in-flight batches (their
// requests get StatusShutdown/StatusDeadline responses, never silence),
// closes every connection, and waits for the pools to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*serveConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.cancel()         // batchers: drain queues with StatusShutdown, then exit
	s.batcherWg.Wait() // ... while the connections are still writable
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.conn.Close() // readers: unblock and exit
	}
	s.connWg.Wait()
	return nil
}

// serveConn is one client connection with a write lock so batcher
// goroutines and the reader can interleave responses safely.
type serveConn struct {
	conn net.Conn
	srv  *Server
	wmu  sync.Mutex
}

// respond writes one response frame; write errors drop the connection
// (the client is gone — there is nobody left to respond to).
func (c *serveConn) respond(resp responseFrame) {
	// Count before the write: a client that holds its reply may read
	// Metrics at once, and must see this response already counted.
	m := &c.srv.m
	m.responded.Add(1)
	switch resp.Status {
	case StatusOK:
		m.ok.Add(1)
	case StatusRejected:
		m.rejected.Add(1)
	case StatusDeadline:
		m.deadline.Add(1)
	case StatusFault:
		m.faults.Add(1)
	case StatusBadRequest:
		m.bad.Add(1)
	}
	buf := encodeResponse(resp)
	c.wmu.Lock()
	c.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	_, err := c.conn.Write(buf)
	c.wmu.Unlock()
	if err != nil {
		c.conn.Close()
	}
}

// readLoop decodes frames off one connection and admits them.
func (c *serveConn) readLoop() {
	defer func() {
		c.conn.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
	}()
	for {
		hdr, payload, err := readFrame(c.conn)
		if err != nil {
			return // EOF, closed, or a framing error the stream cannot recover from
		}
		rf, err := decodeRequest(hdr, payload)
		if err != nil {
			c.respond(responseFrame{ID: rf.ID, Status: StatusBadRequest})
			continue
		}
		c.admit(rf)
	}
}

// admit applies the admission policy: deadline already expired →
// deadline miss; shutdown → shutdown; queue full → bounded-backpressure
// rejection with a retry-after hint; otherwise enqueue for coalescing.
func (c *serveConn) admit(rf requestFrame) {
	s := c.srv
	faultinject.Fire(faultinject.ServeAdmit)
	req := &request{frame: rf, conn: c}
	if rf.DeadlineUs > 0 {
		req.deadline = time.Now().Add(time.Duration(rf.DeadlineUs) * time.Microsecond)
	} else if s.cfg.DefaultDeadline > 0 {
		req.deadline = time.Now().Add(s.cfg.DefaultDeadline)
	}
	s.m.accepted.Add(1)
	if req.expired(time.Now()) {
		c.respond(responseFrame{ID: rf.ID, Status: StatusDeadline})
		return
	}
	sc := s.class(rf.LogN)
	if sc == nil {
		c.respond(responseFrame{ID: rf.ID, Status: StatusShutdown})
		return
	}
	// Count under the connection's write lock: the batcher answers on
	// this connection, so no client sees its response before the books
	// show its admission.
	c.wmu.Lock()
	select {
	case sc.queue <- req:
		sc.accepted.Add(1)
		c.wmu.Unlock()
	default:
		c.wmu.Unlock()
		// Bounded queue full: reject now with a hint of one batch time,
		// floored at 1µs for a class with no finished batch yet.
		sc.rejected.Add(1)
		hint := max(time.Duration(sc.batchNs.Load()), time.Microsecond)
		c.respond(responseFrame{
			ID: rf.ID, Status: StatusRejected,
			RetryAfterUs: uint32(hint / time.Microsecond),
		})
	}
}

// batcher drains one size class by group commit: it takes the first
// queued request plus whatever else is already queued (up to MaxLane),
// executes the batch at the class's ladder level, and responds to every
// member.  Arrivals during a batch ride the next one, so lanes widen
// under load and a lone request never waits.  Between batches it fields
// the canary ticker — a degraded class periodically proves the tier
// above itself on synthetic vectors (probeClass).  On shutdown it
// answers everything still queued with StatusShutdown before exiting.
func (s *Server) batcher(sc *sizeClass) {
	var probeC <-chan time.Time
	if s.cfg.ProbeInterval > 0 {
		ticker := time.NewTicker(s.cfg.ProbeInterval)
		defer ticker.Stop()
		probeC = ticker.C
	}
	for {
		var first *request
		select {
		case <-s.baseCtx.Done():
			s.drainShutdown(sc)
			return
		case <-probeC:
			s.probeClass(sc)
			continue
		case first = <-sc.queue:
		}
		batch := []*request{first}
	fill:
		for len(batch) < s.cfg.MaxLane {
			select {
			case r := <-sc.queue:
				batch = append(batch, r)
			default:
				break fill
			}
		}
		s.executeBatch(sc, batch)
	}
}

// drainShutdown answers everything queued at shutdown.
func (s *Server) drainShutdown(sc *sizeClass) {
	for {
		select {
		case r := <-sc.queue:
			sc.respond(r, responseFrame{ID: r.frame.ID, Status: StatusShutdown})
		default:
			return
		}
	}
}

// executeBatch runs one coalesced batch at the class's current ladder
// level and responds to every member exactly once.
func (s *Server) executeBatch(sc *sizeClass, batch []*request) {
	start := time.Now()
	// Drop members that expired while queued: computing for them
	// wastes lane width and their clients have already given up.
	live := batch[:0]
	for _, r := range batch {
		if r.expired(start) {
			sc.respond(r, responseFrame{ID: r.frame.ID, Status: StatusDeadline})
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	s.m.batches.Add(1)
	s.m.batchedVecs.Add(uint64(len(live)))

	// The batch context carries the latest member deadline: the batch
	// may run that long, and members expiring earlier are sorted out
	// per-response below.  (An earlier deadline would cancel the whole
	// batch on its most impatient member.)
	ctx := s.baseCtx
	var cancel context.CancelFunc
	var latest time.Time
	for _, r := range live {
		if r.deadline.IsZero() {
			latest = time.Time{}
			break
		}
		if r.deadline.After(latest) {
			latest = r.deadline
		}
	}
	if !latest.IsZero() {
		ctx, cancel = context.WithDeadline(s.baseCtx, latest)
		defer cancel()
	}

	level := sc.level.Load()
	err := s.runLadder(ctx, sc, level, live)

	now := time.Now()
	sc.batchNs.Store(int64(now.Sub(start)))
	switch {
	case err == nil:
		sc.trips.Store(0)
		for _, r := range live {
			if r.expired(now) {
				sc.respond(r, responseFrame{ID: r.frame.ID, Status: StatusDeadline})
				continue
			}
			sc.respond(r, responseFrame{
				ID: r.frame.ID, Status: StatusOK, LogN: r.frame.LogN, Data: r.frame.Data,
			})
		}
	case errors.Is(err, exec.ErrKernelPanic):
		s.noteFault(sc, level, err)
		for _, r := range live {
			sc.respond(r, responseFrame{ID: r.frame.ID, Status: StatusFault})
		}
	case errors.Is(err, context.Canceled) && s.baseCtx.Err() != nil:
		for _, r := range live {
			sc.respond(r, responseFrame{ID: r.frame.ID, Status: StatusShutdown})
		}
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		for _, r := range live {
			sc.respond(r, responseFrame{ID: r.frame.ID, Status: StatusDeadline})
		}
	default:
		// No other error shape escapes the executors, but if one ever
		// does, it must still become responses, not silence.
		s.cfg.Logf("serve: n=%d batch error: %v", sc.n, err)
		for _, r := range live {
			sc.respond(r, responseFrame{ID: r.frame.ID, Status: StatusFault})
		}
	}
}

// runLadder executes the batch at the given degradation level.
func (s *Server) runLadder(ctx context.Context, sc *sizeClass, level int32, live []*request) error {
	xs := make([][]float64, len(live))
	for i, r := range live {
		xs[i] = r.frame.Data
	}
	return s.runLevel(ctx, sc, level, xs)
}

// runLevel executes one lane of vectors at the given degradation level;
// it is the single execution path for client batches and canary probes
// alike, so both pass the same fault point and containment.
func (s *Server) runLevel(ctx context.Context, sc *sizeClass, level int32, xs [][]float64) (err error) {
	// A panic in this function itself (the ServeExec fault point, or a
	// bug in batch assembly) must be contained exactly like a kernel
	// panic below the executors.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: batch panic: %v (%w)", r, exec.ErrKernelPanic)
		}
	}()
	faultinject.Fire(faultinject.ServeExec)
	switch level {
	case ladderFull:
		return exec.RunBatch(ctx, sc.full, xs, 0)
	case ladderScalar:
		return exec.RunBatch(ctx, sc.scalar, xs, 0)
	default: // ladderSequential
		for _, x := range xs {
			if err := exec.RunCtx(ctx, sc.scalar, x, 1); err != nil {
				return err
			}
		}
		return nil
	}
}

// canaryLane is the width of a re-escalation probe batch: wide enough
// to exercise the batch path of the tier under test, narrow enough that
// an idle degraded class probes cheaply.
const canaryLane = 2

// probeClass sends a synthetic canary batch through the tier one level
// above the class's current position.  A clean canary re-escalates one
// level — recovery is earned by evidence, never by a lucky client
// batch — while a contained canary fault leaves the class where it is,
// at the cost of no client response (the vectors are server-owned).
func (s *Server) probeClass(sc *sizeClass) {
	level := sc.level.Load()
	if level <= ladderFull {
		return
	}
	target := level - 1
	xs := make([][]float64, canaryLane)
	for i := range xs {
		x := make([]float64, 1<<uint(sc.n))
		for j := range x {
			x[j] = float64((i+j)%16) - 8
		}
		xs[i] = x
	}
	if err := s.runLevel(s.baseCtx, sc, target, xs); err != nil {
		s.cfg.Logf("serve: n=%d canary at %s failed (%v); staying at %s",
			sc.n, ladderName(target), err, ladderName(level))
		return
	}
	if sc.level.CompareAndSwap(level, target) {
		sc.trips.Store(0)
		s.m.reescalations.Add(1)
		s.cfg.Logf("serve: n=%d re-escalated %s -> %s after a clean canary batch",
			sc.n, ladderName(level), ladderName(target))
	}
}

// noteFault records a contained fault and steps the ladder down after
// FaultLadderTrips consecutive ones at the same level.
func (s *Server) noteFault(sc *sizeClass, level int32, err error) {
	if sc.trips.Add(1) < int32(s.cfg.FaultLadderTrips) || level >= ladderFloor {
		return
	}
	if sc.level.CompareAndSwap(level, level+1) {
		sc.trips.Store(0)
		s.m.degradations.Add(1)
		s.cfg.Logf("serve: n=%d degraded %s -> %s after repeated contained faults (%v)",
			sc.n, ladderName(level), ladderName(level+1), err)
	}
}
