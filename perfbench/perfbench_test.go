package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check the output against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func names(ms []struct{ Name, Unit string }) map[string]bool {
	out := map[string]bool{}
	for _, m := range ms {
		out[m.Name] = true
	}
	return out
}

func run(t *testing.T, w *workload, trace bool) *result {
	t.Helper()
	cfg := config{workload: w.name, seed: 7, seconds: 1, trace: trace, out: t.TempDir()}
	res, err := execute(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v failed=%d attempted=%d errors=%q", res.Correct, res.Failed, res.Attempted, res.errs)
	}
	return res
}

// TestTracedSelfChecks runs every workload traced, so that the identities
// the per-layer table rests on (selfChecks, which fail the run) hold, and
// checks that every per-layer metric of BENCHMARK.json is reported.
func TestTracedSelfChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := run(t, w, true)
			for _, m := range sp.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			for name := range res.Metrics {
				if !names(sp.PerLayer)[name] {
					t.Errorf("metric %s is not in BENCHMARK.json", name)
				}
			}
		})
	}
}

// TestEndToEndMetrics checks that an untraced run of every workload
// reports the end-to-end metrics of BENCHMARK.json, none zero. A
// percentile may be missing only when its class fell short of
// minSamples in this short run, and the run must say so.
func TestEndToEndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := run(t, w, false)
			omitted := strings.Join(res.notes, "\n")
			for _, m := range sp.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok && strings.Contains(m.Name, "_p") &&
					strings.Contains(omitted, strings.SplitN(m.Name, "_", 2)[0]+" percentiles omitted") {
					continue
				}
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end metric %s: got %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			for name := range res.Metrics {
				if !names(sp.EndToEnd)[name] {
					t.Errorf("metric %s is not in BENCHMARK.json", name)
				}
			}
		})
	}
}

// TestStaleVersionRejected checks that the read-back model tells
// versions apart and accepts only the window it is given.
func TestStaleVersionRejected(t *testing.T) {
	g := newGen(1, 4096)
	cur := g.content(3, 5, 4096)
	if !g.matches(3, 5, 5, 4096, 0, cur) {
		t.Fatal("current version rejected")
	}
	if g.matches(3, 4, 4, 4096, 0, cur) || g.matches(3, 6, 7, 4096, 0, cur) {
		t.Fatal("version outside the window accepted")
	}
	if !g.matches(3, 4, 6, 4096, 100, cur[100:200]) {
		t.Fatal("partial read of the current version rejected")
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*FS).WriteFile": "repro/internal/core",
		"runtime.memmove":                     "runtime",
		"internal/runtime/maps.h2":            "internal/runtime/maps",
		"hash/crc32.castagnoliSSE42Triple":    "hash/crc32",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
