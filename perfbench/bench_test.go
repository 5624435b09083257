package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// declared reads the metrics BENCHMARK.json declares, as "name unit".
func declared(t *testing.T) (e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	return e2e, layers
}

// smoke runs the command end to end at tiny sizes and decodes its last
// output line; names are "name unit".
func smoke(t *testing.T, workload, trace string) (correct bool, attempted, failed int, names []string) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", trace, "--tiny", "--out", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line: %v", workload, err)
	}
	for k, m := range res.Metrics {
		names = append(names, k+" "+m.Unit)
	}
	sort.Strings(names)
	return res.Correct, res.Attempted, res.Failed, names
}

func TestSmokeEveryWorkload(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloads {
		for trace, want := range map[string][]string{"0": e2e, "1": layers} {
			correct, attempted, failed, names := smoke(t, w.name, trace)
			if !correct || attempted < 1 || failed != 0 {
				t.Errorf("%s trace %s: correct %v, attempted %d, failed %d", w.name, trace, correct, attempted, failed)
			}
			if strings.Join(names, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace %s: metrics\n%v\nwant\n%v", w.name, trace, names, want)
			}
		}
	}
}

func TestCorruptedOutputCounted(t *testing.T) {
	for _, w := range workloads {
		cfg := config{seed: 3, dur: 100 * time.Millisecond, tiny: true, setupReps: 1, outDir: t.TempDir(), corrupt: true}
		r, err := w.run(cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.failed != 1 || r.wrong != 1 {
			t.Errorf("%s: one corrupted element gave %d failed, %d wrong of %d; want 1 and 1", w.name, r.failed, r.wrong, r.attempted)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "no-such-workload"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}

func TestStalledSendCountedLate(t *testing.T) {
	var arrivals []arrival
	for i := 0; i < 20; i++ {
		arrivals = append(arrivals, arrival{at: time.Duration(i) * 5 * time.Millisecond})
	}
	outs := openLoop(arrivals, func(arrival) verdict { return answered }, nil, func(i int) {
		if i == 10 {
			time.Sleep(4 * lateLimit)
		}
	})
	if outs[10].late <= lateLimit {
		t.Errorf("stalled send: late %v, want more than %v", outs[10].late, lateLimit)
	}
	if outs[10].fromDue < 4*lateLimit {
		t.Errorf("stalled send: latency from due %v does not include the stall", outs[10].fromDue)
	}
}
