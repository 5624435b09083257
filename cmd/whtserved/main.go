// Command whtserved is the batch-serving daemon: it listens on a TCP
// or unix socket, coalesces concurrent same-size transform requests
// into batches (each batch takes what is queued when it starts, up
// to -lane, so lanes widen with load and a lone request never waits),
// serves them from warm per-size schedule caches (wisdom-seeded at
// boot), and contains kernel faults per batch behind a degradation
// ladder instead of crashing the process.  See internal/serve for the
// protocol and the serving contract.
//
// Usage:
//
//	whtserved [-network unix|tcp] [-addr /run/wht.sock]
//	          [-wisdom wht-wisdom.json] [-warm 8,10,12]
//	          [-lane 64] [-queue 256]
//	          [-deadline 0] [-trips 2] [-probe 1m]
//	          [-metrics 127.0.0.1:9090]
//
// -metrics exposes a Prometheus-text /metrics endpoint (stdlib only):
// global and per-size-class request counters, degradation-ladder
// levels, and schedule-cache traffic.
//
// Load generation (measures p50/p99 latency vs offered load against a
// running server, writing BENCH_serve.json and a human table).  -conc
// sweeps closed-loop worker counts; -rate switches to open loop — a
// fixed arrival rate that keeps offering load past saturation, the
// shape that finds the latency knee:
//
//	whtserved -loadgen -addr /run/wht.sock [-n 10] [-conc 1,4,16,64]
//	          [-rate 200,400,800] [-duration 3s] [-reqdeadline 0]
//	          [-out BENCH_serve]
//
// Self-contained soak (boots an in-process server on a private unix
// socket, runs the load sweep against it, then shuts down — the CI
// smoke shape, no external daemon needed):
//
//	whtserved -selfserve -duration 10s -conc 64 -out BENCH_serve
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("whtserved: ")

	network := flag.String("network", "unix", "listen network: unix or tcp")
	addr := flag.String("addr", "", "listen address (unix socket path or host:port); required unless -selfserve")
	wisdomPath := flag.String("wisdom", "", "wisdom file to load at boot (corrupt files are quarantined)")
	warm := flag.String("warm", "", "comma-separated log-sizes to compile before the listener opens")
	lane := flag.Int("lane", 0, "max vectors per coalesced batch (0 = default coalesced batch width)")
	queue := flag.Int("queue", 0, "per-size admission queue depth (0 = 4x lane)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline for requests carrying none (0 = none)")
	trips := flag.Int("trips", 2, "consecutive contained faults before a size class degrades")
	probe := flag.Duration("probe", 0, "canary re-escalation probe interval for degraded classes (0 = 1m, negative disables)")
	metricsAddr := flag.String("metrics", "", "host:port to serve the Prometheus-text /metrics endpoint on (empty = off)")

	loadgen := flag.Bool("loadgen", false, "run the load generator against -addr instead of serving")
	selfserve := flag.Bool("selfserve", false, "boot an in-process server and run the load generator against it")
	logN := flag.Int("n", 10, "loadgen transform log-size")
	conc := flag.String("conc", "1,4,16,64", "loadgen closed-loop concurrency sweep")
	rate := flag.String("rate", "", "loadgen open-loop offered rates in req/s (comma-separated; overrides -conc)")
	duration := flag.Duration("duration", 3*time.Second, "loadgen duration per concurrency level")
	reqDeadline := flag.Duration("reqdeadline", 0, "loadgen per-request deadline (0 = none)")
	out := flag.String("out", "BENCH_serve", "loadgen output basename (.json and .txt are appended)")
	flag.Parse()

	cfg := serve.Config{
		MaxLane:          *lane,
		QueueDepth:       *queue,
		DefaultDeadline:  *deadline,
		WisdomPath:       *wisdomPath,
		FaultLadderTrips: *trips,
		ProbeInterval:    *probe,
	}
	if *warm != "" {
		sizes, err := parseInts(*warm)
		if err != nil {
			log.Fatalf("-warm: %v", err)
		}
		cfg.WarmSizes = sizes
	}

	switch {
	case *selfserve:
		dir, err := os.MkdirTemp("", "whtserved-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		sock := filepath.Join(dir, "wht.sock")
		cfg.WarmSizes = append(cfg.WarmSizes, *logN)
		srv := serve.NewServer(cfg)
		done := make(chan error, 1)
		go func() { done <- srv.ListenAndServe("unix", sock) }()
		// The listener opens asynchronously; wait for it.
		if err := waitDialable(sock, 2*time.Second); err != nil {
			log.Fatal(err)
		}
		stopMetrics := startMetrics(*metricsAddr, srv)
		runLoadgen("unix", sock, *logN, *conc, *rate, *duration, *reqDeadline, *out)
		stopMetrics()
		if err := srv.Close(); err != nil {
			log.Fatal(err)
		}
		if err := <-done; err != nil {
			log.Fatal(err)
		}
		m := srv.Metrics()
		log.Printf("soak accounting: accepted=%d responded=%d ok=%d rejected=%d deadline=%d faults=%d",
			m.Accepted, m.Responded, m.OK, m.Rejected, m.DeadlineMisses, m.Faults)
		if m.Responded != m.Accepted {
			log.Fatalf("SOAK FAILURE: %d requests admitted but only %d answered", m.Accepted, m.Responded)
		}
		log.Printf("soak ok: zero requests dropped without a response")

	case *loadgen:
		if *addr == "" {
			log.Fatal("-loadgen needs -addr")
		}
		runLoadgen(*network, *addr, *logN, *conc, *rate, *duration, *reqDeadline, *out)

	default:
		if *addr == "" {
			log.Fatal("need -addr (or -selfserve / -loadgen)")
		}
		srv := serve.NewServer(cfg)
		stopMetrics := startMetrics(*metricsAddr, srv)
		defer stopMetrics()
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sig
			log.Printf("signal %v: shutting down", s)
			srv.Close()
		}()
		log.Printf("serving on %s %s", *network, *addr)
		if err := srv.ListenAndServe(*network, *addr); err != nil {
			log.Fatal(err)
		}
		m := srv.Metrics()
		log.Printf("served: accepted=%d ok=%d rejected=%d deadline=%d faults=%d batches=%d",
			m.Accepted, m.OK, m.Rejected, m.DeadlineMisses, m.Faults, m.Batches)
	}
}

func runLoadgen(network, addr string, logN int, conc, rate string, dur, reqDeadline time.Duration, out string) {
	lcfg := serve.LoadgenConfig{
		Network:  network,
		Addr:     addr,
		LogN:     logN,
		Duration: dur,
		Deadline: reqDeadline,
	}
	if rate != "" {
		rates, err := parseFloats(rate)
		if err != nil {
			log.Fatalf("-rate: %v", err)
		}
		lcfg.RatesRPS = rates
	} else {
		levels, err := parseInts(conc)
		if err != nil {
			log.Fatalf("-conc: %v", err)
		}
		lcfg.Concurrencies = levels
	}
	rep, err := serve.RunLoadgen(lcfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if out != "" {
		if err := rep.WriteJSON(out + ".json"); err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(out + ".txt")
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteText(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s.json and %s.txt", out, out)
	}
}

// startMetrics exposes the server's Prometheus-text /metrics endpoint
// on its own HTTP listener (empty addr: no-op).  The returned function
// stops the listener.
func startMetrics(addr string, srv *serve.Server) func() {
	if addr == "" {
		return func() {}
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", srv.MetricsHandler())
	hs := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("metrics listener: %v", err)
		}
	}()
	log.Printf("metrics on http://%s/metrics", addr)
	return func() { hs.Close() }
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func waitDialable(sock string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := serve.Dial("unix", sock)
		if err == nil {
			c.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not come up on %s: %v", sock, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
