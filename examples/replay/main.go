// Replay: record a probing campaign to a tracefile, then run border
// inference purely from the file — no simulator in the loop. This mirrors
// the paper's actual workflow (probe once for 16 days, analyse the warts
// archives many times) and demonstrates that the pipeline consumes nothing
// but traces and public datasets.
//
//	go run ./examples/replay
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"cloudmap"
	"cloudmap/internal/border"
	"cloudmap/internal/probe"
	"cloudmap/internal/tracefile"
)

func main() {
	cfg := cloudmap.SmallConfig()
	cfg.Topology.Seed = 5
	sys, err := cloudmap.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	path := filepath.Join(os.TempDir(), "cloudmap-replay.traces.bin")
	defer os.Remove(path)

	// Phase 1: the measurement campaign, recorded to disk while a live
	// inference consumes it (tracefile.Tee fans the stream out).
	w, err := tracefile.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	live := border.New(sys.Registry, "amazon")
	targets := probe.Round1Targets(sys.Topology, probe.Round1Options{})
	fmt.Printf("phase 1: probing %d targets from 15 regions, recording to %s\n", len(targets), path)
	if err := sys.Prober.Campaign(sys.Prober.VMs("amazon"), targets, tracefile.Tee(w.Sink(), live.Consume)); err != nil {
		log.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("  recorded %d traces (%.1f MB)\n", live.Stats.Traces, float64(st.Size())/1e6)

	// Phase 2: a fresh inference run fed exclusively from the file.
	replayed := border.New(sys.Registry, "amazon")
	fmt.Println("phase 2: replaying the file into a fresh inference (no simulator)")
	sum, err := tracefile.ReplayFile(path, replayed.Consume)
	if err != nil {
		log.Fatal(err)
	}
	if !sum.Complete {
		log.Fatal("replay: the recorded campaign is incomplete")
	}

	// The two runs must agree exactly.
	la, lc := live.BreakdownABIs(), live.BreakdownCBIs()
	ra, rc := replayed.BreakdownABIs(), replayed.BreakdownCBIs()
	fmt.Printf("  live:     %d ABIs, %d CBIs, %d peer ASes\n", la.Total, lc.Total, len(live.PeerASNs()))
	fmt.Printf("  replayed: %d ABIs, %d CBIs, %d peer ASes\n", ra.Total, rc.Total, len(replayed.PeerASNs()))
	if la.Total != ra.Total || lc.Total != rc.Total {
		log.Fatal("replay mismatch: the file does not carry everything the inference needs")
	}
	fmt.Println("replay is bit-identical: the pipeline needs only traces + public datasets.")
}
