package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/wht"
)

// oocore-shard: a closed loop of wht.TransformLarge over an n = 24
// float64 shard store (128 MiB per plane) with a 2^20-element resident
// window and two workers.  The store is created and filled in set-up;
// sealing is not part of an op because it fsyncs.
const (
	oocLog      = 24
	oocResident = 20
	oocWorkers  = 2
	oocSLOMs    = 20_000
	oocChunk    = 1 << 16 // elements per store read or write outside ops
	oocSamples  = 4       // elements of W·x checked by the definition after odd ops
	oocRefill   = 60      // transforms before the store is reloaded
	timeSample  = 16      // a traced store times one call in timeSample
)

// timedStore wraps a BufStore and adds up the time its callers spend in
// each method (estimated from a sample of calls) and the bytes they move.  The shard store has no in-RAM
// direct path, so wrapping it leaves the executor's path unchanged.
type timedStore struct {
	wht.BufStore[float64]
	readNs, writeNs, auxNs, flipNs counter
	readBytes, writeBytes          counter
}

// counter is an atomic count on a cache line of its own, so workers
// updating different counters do not contend.
type counter struct {
	atomic.Int64
	_ [56]byte
}

func (t *timedStore) reset() {
	for _, c := range []*counter{&t.readNs, &t.writeNs, &t.auxNs, &t.flipNs, &t.readBytes, &t.writeBytes} {
		c.Store(0)
	}
}

func (t *timedStore) Read(dst []float64, off int) error {
	return t.timed(&t.readNs, &t.readBytes, len(dst), off, func() error { return t.BufStore.Read(dst, off) })
}

func (t *timedStore) Write(src []float64, off int) error {
	return t.timed(&t.writeNs, &t.writeBytes, len(src), off, func() error { return t.BufStore.Write(src, off) })
}

func (t *timedStore) WriteAux(src []float64, off int) error {
	return t.timed(&t.auxNs, &t.writeBytes, len(src), off, func() error { return t.BufStore.WriteAux(src, off) })
}

// timed runs one call moving n elements at off.  Every call's bytes are
// counted, but only one call in timeSample, chosen by its block index
// off/n, is timed, and its time is scaled up: the transposes make many
// small calls, and reading the clock around each of them made the traced
// n = 24 op half again as slow.
func (t *timedStore) timed(ns, bytes *counter, n, off int, call func() error) error {
	bytes.Add(int64(8 * n))
	if n == 0 || (off/n)%timeSample != 0 {
		return call()
	}
	start := time.Now()
	err := call()
	ns.Add(timeSample * int64(time.Since(start)))
	return err
}

func (t *timedStore) Flip() error {
	start := time.Now()
	err := t.BufStore.Flip()
	t.flipNs.Add(int64(time.Since(start)))
	return err
}

// corruptStore changes element 0 of the store.
func corruptStore(st wht.BufStore[float64]) error {
	v := make([]float64, 1)
	if err := st.Read(v, 0); err != nil {
		return err
	}
	v[0] = -v[0] - 1
	return st.Write(v, 0)
}

// loadStore writes the seeded input into the store and returns the time
// spent in Write, excluding the input generation.
func loadStore(st wht.BufStore[float64], in stream) (time.Duration, error) {
	buf := make([]float64, min(oocChunk, st.Len()))
	var spent time.Duration
	for off := 0; off < st.Len(); off += len(buf) {
		fill(buf, in, off)
		start := time.Now()
		if err := st.Write(buf, off); err != nil {
			return 0, err
		}
		spent += time.Since(start)
	}
	return spent, nil
}

// storeWrong checks the store after its k-th transform.  After an even
// k every element must be 2^(n·k/2)·x (W·W = N·I); after an odd k,
// oocSamples seeded elements must match the definition
// y[i] = Σ_j (-1)^popcount(i&j)·x[j], scaled by 2^(n·(k-1)/2).  An odd
// transform's full output is also checked by the next even check, since
// W is invertible.
func storeWrong(st wht.BufStore[float64], in stream, n, k int, rng *rand.Rand) (int, error) {
	bad := 0
	buf := make([]float64, min(oocChunk, st.Len()))
	want := make([]float64, len(buf))
	if k%2 == 0 {
		for off := 0; off < st.Len(); off += len(buf) {
			if err := st.Read(buf, off); err != nil {
				return 0, err
			}
			fill(want, in, off)
			bad += countWrong(buf, want, n*k/2)
		}
		return bad, nil
	}
	var idx [oocSamples]int
	var sums [oocSamples]float64
	for s := range idx {
		idx[s] = rng.IntN(st.Len())
	}
	for j := 0; j < st.Len(); j++ {
		x := in.at(j)
		for s, i := range idx {
			sums[s] += x * float64(1-2*(bits.OnesCount(uint(i&j))&1))
		}
	}
	for s, i := range idx {
		if err := st.Read(buf[:1], i); err != nil {
			return 0, err
		}
		bad += countWrong(buf[:1], sums[s:s+1], n*(k-1)/2)
	}
	return bad, nil
}

func oocoreShard(cfg config, tr *tracer) (*result, error) {
	n, resident := oocLog, oocResident
	if cfg.tiny {
		n, resident = 14, 10
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("shard-%d", os.Getpid()))
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	in := newStream(cfg.seed, 0)
	r := newResult()
	var st *wht.ShardStore[float64]
	var timed *timedStore
	var store wht.BufStore[float64] // st, or timed when traced
	opt := wht.LargeOptions{ResidentLog: resident, Workers: oocWorkers}
	rng := rand.New(rand.NewPCG(cfg.seed, 4))
	k := 0 // transforms applied since the store was loaded
	op := func() (time.Duration, bool, error) {
		if k >= oocRefill {
			if _, err := loadStore(st, in); err != nil {
				return 0, false, err
			}
			k = 0
		}
		start := time.Now()
		err := wht.TransformLarge(context.Background(), store, opt)
		end := time.Now()
		if tr != nil {
			tr.record(0, uint64(r.attempted), "wht.TransformLarge", start, end)
		}
		k++
		if cfg.corrupt && r.attempted == 0 {
			if err := corruptStore(st); err != nil {
				return 0, false, err
			}
		}
		r.attempted++
		bad, verr := storeWrong(st, in, n, k, rng)
		if verr != nil {
			return 0, false, verr
		}
		if err != nil || bad > 0 {
			r.failed++
			if bad > 0 {
				r.wrong++
			}
			if _, err := loadStore(st, in); err != nil {
				return 0, false, err
			}
			k = 0
		}
		return end.Sub(start), err == nil && bad == 0, nil
	}

	defer func() {
		if st != nil {
			st.Close() // seals; nothing reads the store afterwards
		}
	}()

	// Set-up: create the store, fill it with the input, and run one
	// warm-up transform, which first touches the auxiliary plane.
	// Earlier repetitions are sealed and removed.
	var setupS, createMs []float64
	var dir string
	for rep := 0; rep < cfg.setupReps; rep++ {
		if st != nil {
			if err := st.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		dir = filepath.Join(base, fmt.Sprint(rep))
		start := time.Now()
		var err error
		if st, err = wht.CreateShardStore[float64](dir, 1<<n, wht.ShardOptions{}); err != nil {
			return nil, err
		}
		created := time.Since(start)
		filled, err := loadStore(st, in)
		if err != nil {
			return nil, err
		}
		k = 0
		store, timed = st, &timedStore{BufStore: st}
		if tr != nil {
			store = timed
		}
		d, _, err := op()
		if err != nil {
			return nil, err
		}
		createMs = append(createMs, ms(created))
		setupS = append(setupS, (created + filled + d).Seconds())
	}
	timed.reset()

	var opMs []float64
	var ok []bool
	elems := 0.0
	for deadline := time.Now().Add(cfg.dur); len(opMs) == 0 || k%2 == 1 || time.Now().Before(deadline); {
		d, good, err := op()
		if err != nil {
			return nil, err
		}
		opMs, ok = append(opMs, ms(d)), append(ok, good)
		elems += float64(int(1) << n)
	}
	libraryMetrics(r, setupS, opMs, ok, elems, oocSLOMs)
	if tr == nil {
		return r, nil
	}

	ops := float64(len(opMs))
	r.layer("exec.seg.op_ms", quantile(opMs, 0.5), "ms")
	r.layer("shard.read_ms", float64(timed.readNs.Load())/1e6/ops, "ms")
	r.layer("shard.write_ms", float64(timed.writeNs.Load())/1e6/ops, "ms")
	r.layer("shard.writeaux_ms", float64(timed.auxNs.Load())/1e6/ops, "ms")
	r.layer("shard.flip_ms", float64(timed.flipNs.Load())/1e6/ops, "ms")
	r.layer("shard.read_bytes", float64(timed.readBytes.Load())/ops, "bytes")
	r.layer("shard.write_bytes", float64(timed.writeBytes.Load())/ops, "bytes")
	r.layer("shard.create_ms", quantile(createMs, 0.5), "ms")
	start := time.Now()
	err := st.Close()
	st = nil
	if err != nil {
		return nil, err
	}
	r.layer("shard.seal_ms", ms(time.Since(start)), "ms")
	start = time.Now()
	if st, err := wht.OpenShardStore[float64](dir); err != nil {
		return nil, err
	} else {
		r.layer("shard.reopen_ms", ms(time.Since(start)), "ms")
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	os.RemoveAll(dir)

	// The same two-phase form TransformLarge compiles, run over an in-RAM
	// SliceStore, whose direct path needs no copies.
	form, err := plan.TwoPhase(plan.Balanced(n, min(plan.MaxLeafLog, resident)), resident)
	if err != nil {
		return nil, err
	}
	s, err := exec.NewSegmentedSchedule(form)
	if err != nil {
		return nil, err
	}
	transposes := 0
	for _, sg := range s.Segments() {
		if sg.Kind == exec.TransposeSegment {
			transposes++
		}
	}
	r.layer("exec.seg.segments", float64(len(s.Segments())), "count")
	r.layer("exec.seg.transposes", float64(transposes), "count")
	x := make([]float64, 1<<n)
	fill(x, in, 0)
	segOpt := exec.SegOptions{Workers: oocWorkers, ResidentElems: oocWorkers << resident}
	var inram []float64
	for i := 0; i < 4; i++ {
		start := time.Now()
		if err := wht.RunSegmented(context.Background(), s, wht.NewSliceStore(x), segOpt); err != nil {
			return nil, err
		}
		inram = append(inram, ms(time.Since(start)))
	}
	r.attempted++
	want := make([]float64, min(oocChunk, len(x)))
	for off := 0; off < len(x); off += len(want) { // four transforms: W⁴ = N²·I
		fill(want, in, off)
		if countWrong(x[off:off+len(want)], want, 2*n) > 0 {
			r.failed++
			r.wrong++
			break
		}
	}
	r.layer("exec.seg.inram_op_ms", quantile(inram, 0.5), "ms")
	return r, nil
}
