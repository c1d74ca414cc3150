package analysis

// Property tests for the MS-BFS distance profile: bit-identity across
// worker counts and batch widths against the preserved per-source kernel
// (persource_test.go), and non-perturbation under a live obs recorder.

import (
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
	"edgeshed/internal/obs"
	"edgeshed/internal/par"
)

func profilesEqual(t *testing.T, label string, got, want *DistanceProfile) {
	t.Helper()
	if got.Sources != want.Sources || got.Diameter != want.Diameter {
		t.Fatalf("%s: sources/diameter %d/%d != oracle %d/%d",
			label, got.Sources, got.Diameter, want.Sources, want.Diameter)
	}
	if got.ReachablePairs != want.ReachablePairs {
		t.Fatalf("%s: pairs %v != oracle %v", label, got.ReachablePairs, want.ReachablePairs)
	}
	if len(got.DistCounts) != len(want.DistCounts) {
		t.Fatalf("%s: %d distances != oracle %d", label, len(got.DistCounts), len(want.DistCounts))
	}
	for d := range want.DistCounts {
		if got.DistCounts[d] != want.DistCounts[d] {
			t.Fatalf("%s: DistCounts[%d] = %v != oracle %v", label, d, got.DistCounts[d], want.DistCounts[d])
		}
	}
}

// TestProfileBitIdenticalAcrossWorkersAndBatch pins NewDistanceProfile
// bit-exactly to the replaced per-source direction-optimizing kernel across
// graphs, exact and sampled source sets, worker counts and batch widths:
// every configuration counts the same integers.
func TestProfileBitIdenticalAcrossWorkersAndBatch(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"BA", gen.BarabasiAlbert(250, 3, 7)},
		{"ER", gen.ErdosRenyi(250, 700, 11)},
		{"Disconnected", graph.MustFromEdges(60, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 10, V: 11}, {U: 11, V: 12}, {U: 12, V: 13},
		})},
	}
	modes := []ProfileOptions{{}, {Sources: 64, Seed: 5}}
	for _, tg := range graphs {
		for _, mode := range modes {
			want := perSourceDistanceProfile(tg.g, mode)
			for _, workers := range []int{1, 2, 4, 7} {
				for _, batch := range []int{1, 8, 64} {
					opt := mode
					opt.Workers = workers
					opt.Batch = batch
					got := NewDistanceProfile(tg.g, opt)
					label := tg.name
					if mode.Sources > 0 {
						label += "/sampled"
					}
					profilesEqual(t, label, got, want)
				}
			}
		}
	}
}

// TestProfileBitIdenticalWithObs pins the instrumentation non-perturbation
// guarantee: a live recorder must not change one profile bit, and the
// profile's bfs.sources_done and the engine's msbfs.* counters must move.
func TestProfileBitIdenticalWithObs(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 11)
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{1, 64} {
			opt := ProfileOptions{Sources: 96, Seed: 5, Workers: workers, Batch: batch}
			want := NewDistanceProfile(g, opt)
			rec := obs.New("test")
			prev := par.SetSlotObserver(rec.Flight())
			o := opt
			o.Obs = rec.Root()
			got := NewDistanceProfile(g, o)
			par.SetSlotObserver(prev)
			rec.Root().End()
			profilesEqual(t, "obs", got, want)
			vals := rec.CounterValues()
			for _, name := range []string{
				"bfs.sources_done", "msbfs.batches_done", "msbfs.words_scanned",
			} {
				if vals[name] == 0 {
					t.Fatalf("workers=%d batch=%d: counter %q missing or zero: %v", workers, batch, name, vals)
				}
			}
			// Wide batches can saturate occupancy at level 1 and run every
			// level bottom-up, so assert on the direction tallies jointly.
			if vals["msbfs.topdown_levels"]+vals["msbfs.bottomup_levels"] == 0 {
				t.Fatalf("workers=%d batch=%d: no BFS levels recorded: %v", workers, batch, vals)
			}
			hists := rec.HistogramValues()
			for _, name := range []string{"msbfs.batch_ns", "msbfs.batch_occupancy", "msbfs.level_width"} {
				if hists[name] == nil || hists[name].Count == 0 {
					t.Fatalf("workers=%d batch=%d: histogram %q missing or empty", workers, batch, name)
				}
			}
		}
	}
}
