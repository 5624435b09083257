// Command perfbench is the repository's end-to-end benchmark.  One run
// executes one workload for a fixed time, checks every output against an
// exact oracle, and prints its metrics; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, with -trace 1 the
// per-layer ones (see README.md for the workloads and the layer → metric
// map).  Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload call-small --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is what one workload run is given.
type config struct {
	seed      uint64
	dur       time.Duration
	tiny      bool // smoke and probe sizes: small vectors, short phases
	setupReps int  // set-up is repeated this often; setup_s is the median
	outDir    string
	corrupt   bool // tests only: change one element of the first output before it is checked
}

// workload runs one workload.  With a nil tracer it measures the
// end-to-end metrics; with a tracer it also fills res.layers.
type workload func(cfg config, tr *tracer) (*result, error)

// workloads lists the benchmark's workloads in the order they are
// documented and probed.
var workloads = []struct {
	name string
	run  workload
}{
	{"call-small", callSmall},
	{"vector-large", vectorLarge},
	{"serve-open", serveOpen},
	{"oocore-shard", oocoreShard},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: call-small, vector-large, serve-open or oocore-shard")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	traced := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	outDir := fs.String("out", ".bench_out", "directory for trace files, sockets and shard stores")
	tiny := fs.Bool("tiny", false, "smoke run: small sizes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w.run
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	if v, ok := os.LookupEnv("WHT_SIMD"); ok {
		fmt.Fprintf(stderr, "perfbench: WHT_SIMD=%q is set; the benchmark measures the default backend\n", v)
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{
		seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		tiny: *tiny, setupReps: 3, outDir: *outDir,
	}

	steal := startSteal()
	var res *result
	var err error
	if *traced == 1 {
		res, err = tracedRun(*name, wl, cfg)
	} else {
		res, err = wl(cfg, nil)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	stealShare := steal.share()
	if *traced == 1 {
		res.layer("host.steal_share", stealShare, "ratio")
	} else {
		res.set("rss_mb", peakRSSMiB(), "MiB")
	}
	host := fingerprint(stealShare)
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostLine)
	res.print(stdout, *name, *traced == 1)
	return 0
}

// tracedRun measures the workload untraced and then traced for half the
// time each (their op_p50 ratio is trace.overhead), and fills in the
// layers the workload does not use from a short tiny-size traced probe
// of each other workload, so that every per-layer metric is measured.
func tracedRun(name string, wl workload, cfg config) (*result, error) {
	half := cfg
	half.dur = cfg.dur / 2
	half.setupReps = 1
	plain, err := wl(half, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	res, err := wl(half, tr)
	if err != nil {
		return nil, err
	}
	res.attempted += plain.attempted
	res.failed += plain.failed
	res.wrong += plain.wrong
	res.layer("trace.overhead", res.e2e["req_p50_ms"].Value/plain.e2e["req_p50_ms"].Value, "ratio")
	if err := tr.write(fmt.Sprintf("%s/trace-%s-seed%d.jsonl", cfg.outDir, name, cfg.seed)); err != nil {
		return nil, err
	}
	for _, w := range workloads {
		if w.name == name {
			continue
		}
		probe := config{seed: cfg.seed, dur: 300 * time.Millisecond, tiny: true, setupReps: 1, outDir: cfg.outDir}
		p, err := w.run(probe, newTracer())
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", w.name, err)
		}
		res.attempted += p.attempted
		res.failed += p.failed
		res.wrong += p.wrong
		for k, v := range p.layers {
			if _, ok := res.layers[k]; !ok {
				res.layers[k] = v
			}
		}
	}
	return res, nil
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	wrong             int // failed ops whose output was wrong (not merely late or refused)
	e2e, layers       map[string]metric
	timings           []timing
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *result) layer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

// timed records a timing distribution for the human-readable report.
func (r *result) timed(name string, ms []float64) {
	r.timings = append(r.timings, timing{name, append([]float64(nil), ms...)})
}

// print writes the report: one line per timing with its sample count and
// tail percentile, then the JSON result as the last line.
func (r *result) print(w io.Writer, name string, traced bool) {
	for _, t := range r.timings {
		fmt.Fprintln(w, t.String())
	}
	out := r.e2e
	if traced {
		out = r.layers
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %-26s %14.6g %s\n", name, k, out[k].Value, out[k].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.wrong == 0, r.attempted, r.failed, out})
	fmt.Fprintf(w, "%s\n", line)
}
