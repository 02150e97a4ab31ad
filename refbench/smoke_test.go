package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"kdash/internal/topk"
)

// smokeNodes is the small graph the smoke test runs every workload on.
const smokeNodes = 2000

type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runSmoke runs one workload on the small graph and returns its detail
// and result lines.
func runSmoke(t *testing.T, workload, seed, trace string) (map[string]any, output) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "2", "--trace", trace,
		"--nodes", strconv.Itoa(smokeNodes), "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want detail and result lines, got %q", workload, stdout.String())
	}
	var detail map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &detail); err != nil {
		t.Fatal(err)
	}
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	return detail, out
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json untraced
// and traced and checks that each named metric is emitted with its unit,
// and that no end-to-end metric reads 0.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": bj.EndToEnd, "1": bj.PerLayer} {
			_, out := runSmoke(t, w.Name, "1", trace)
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// flipBit returns a copy of rs with the lowest bit of result i's score
// flipped.
func flipBit(rs []topk.Result, i int) []topk.Result {
	out := append([]topk.Result(nil), rs...)
	out[i].Score = math.Float64frombits(math.Float64bits(out[i].Score) ^ 1)
	return out
}

// TestGateFailsOnCorruptedAnswer corrupts one answer of each kind by a
// single bit or node and checks that the gate counts it.
func TestGateFailsOnCorruptedAnswer(t *testing.T) {
	cfg := referenceConfig(smokeNodes)
	g := cfg.graph()
	sx, err := cfg.build(g)
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := sx.TopK(7, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sx.Proximity(7, good[1].Node)
	if err != nil {
		t.Fatal(err)
	}
	clean := newAnswers()
	clean.addTopK(7, good)
	clean.addBatch([]int{7}, [][]topk.Result{good})
	clean.addProx(7, good[1].Node, p)
	if res, err := clean.verify(sx, cfg.K, true); err != nil || res.Failed != 0 {
		t.Fatalf("clean answers: %+v, %v", res, err)
	}
	if res, err := clean.oracle(g, sx.Restart(), cfg.K, 1); err != nil || res.Failed != 0 || res.Oracle != 1 {
		t.Fatalf("clean answers against power iteration: %+v, %v", res, err)
	}

	for name, a := range map[string]*answers{
		"topk score bit": func() *answers { a := newAnswers(); a.addTopK(7, flipBit(good, 3)); return a }(),
		"batch score bit": func() *answers {
			a := newAnswers()
			a.addBatch([]int{7}, [][]topk.Result{flipBit(good, 0)})
			return a
		}(),
		"proximity bit": func() *answers {
			a := newAnswers()
			a.addProx(7, good[1].Node, math.Float64frombits(math.Float64bits(p)^1))
			return a
		}(),
		"repeat differs": func() *answers { a := newAnswers(); a.addTopK(7, good); a.addTopK(7, flipBit(good, 2)); return a }(),
	} {
		res, err := a.verify(sx, cfg.K, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 {
			t.Errorf("%s: gate passed a corrupted answer", name)
		}
	}

	// Power iteration catches a wrong node even without a reference.
	wrong := append([]topk.Result(nil), good...)
	wrong[len(wrong)-1].Node = (wrong[len(wrong)-1].Node + 1) % smokeNodes
	a := newAnswers()
	a.addTopK(7, wrong)
	res, err := a.oracle(g, sx.Restart(), cfg.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Error("power iteration passed an answer with a wrong node")
	}
}

// TestEpochGate checks the http-mixed-wal gate on one update sent at
// 10 ms and acked at 20 ms: a read must equal an epoch it may have
// seen, so a stale answer after the ack (a broken read barrier), an
// answer from the future or a flipped bit fails.
func TestEpochGate(t *testing.T) {
	cfg := referenceConfig(smokeNodes)
	g := cfg.graph()
	sx, err := cfg.build(g)
	if err != nil {
		t.Fatal(err)
	}
	up, err := newUpdateGen(1, g, sx.Assignment(), sx.Shards()).next()
	if err != nil {
		t.Fatal(err)
	}
	sx1, _, err := sx.Apply(up.Delta)
	if err != nil {
		t.Fatal(err)
	}
	q := up.Probe
	before, _, err := sx.TopK(q, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	after, _, err := sx1.TopK(q, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	if sameResults(before, after) {
		t.Fatal("the update did not change the probed node's answer")
	}
	start := time.Now()
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	mr := &mixedRun{acked: []update{up}, sent: []time.Time{at(10)}, ackedAt: []time.Time{at(20)}}
	for _, c := range []struct {
		name     string
		rs       []topk.Result
		from, to int
		ok       bool
	}{
		{"before the send, old epoch", before, 0, 5, true},
		{"before the send, new epoch", after, 0, 5, false},
		{"across the send, old epoch", before, 5, 15, true},
		{"across the send, new epoch", after, 5, 15, true},
		{"after the ack, new epoch", after, 25, 30, true},
		{"after the ack, stale", before, 25, 30, false},
		{"after the ack, bit flipped", flipBit(after, 0), 25, 30, false},
	} {
		mr.reads = []timedRead{{q: q, rs: c.rs, t0: at(c.from), t1: at(c.to)}}
		res, err := checkEpochs(sx, cfg.K, mr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checked != 1 || (res.Failed == 0) != c.ok {
			t.Errorf("%s: gate %+v, want ok=%v", c.name, res, c.ok)
		}
	}
}

// TestSeedChangesStreamsNotGraph checks that the workload seed drives
// the query and update streams and never the graph.
func TestSeedChangesStreamsNotGraph(t *testing.T) {
	cfg := referenceConfig(smokeNodes)
	g := cfg.graph()
	sx, err := cfg.build(g)
	if err != nil {
		t.Fatal(err)
	}
	perm := hotPermutation(cfg)
	streams := func(seed int64) (qs []int, ups []string) {
		pk := newPicker(seed, streamClient, perm)
		for i := 0; i < 50; i++ {
			qs = append(qs, pk.uniform(), pk.hot())
		}
		ug := newUpdateGen(seed, g, sx.Assignment(), sx.Shards())
		for i := 0; i < 6; i++ {
			up, err := ug.next()
			if err != nil {
				t.Fatal(err)
			}
			data, _ := json.Marshal(up.Req)
			ups = append(ups, string(data))
		}
		return qs, ups
	}
	q1, u1 := streams(1)
	q1b, u1b := streams(1)
	q2, u2 := streams(2)
	if !slices.Equal(q1, q1b) || strings.Join(u1, ";") != strings.Join(u1b, ";") {
		t.Error("one seed gave two different streams")
	}
	if slices.Equal(q1, q2) {
		t.Error("seeds 1 and 2 gave the same query stream")
	}
	if strings.Join(u1, ";") == strings.Join(u2, ";") {
		t.Error("seeds 1 and 2 gave the same update stream")
	}

	d1, _ := runSmoke(t, "engine-topk", "1", "0")
	d2, _ := runSmoke(t, "engine-topk", "2", "0")
	h1 := d1["provenance"].(map[string]any)["graphHash"]
	h2 := d2["provenance"].(map[string]any)["graphHash"]
	if h1 == nil || h1 != h2 {
		t.Errorf("graph hash changed with the seed: %v vs %v", h1, h2)
	}
}
