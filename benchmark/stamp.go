package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"

	"cloudmap"
)

// stamp records where and on what a result was measured.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Workers    int    `json:"workers"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, "unknown"
	// when built outside a git checkout.
	Commit     string `json:"commit"`
	ConfigHash string `json:"config_hash"`
}

func printStamp(out io.Writer, o options, cfg cloudmap.Config, workers int) error {
	s := stamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Workers: workers, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", ConfigHash: configHash(cfg),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "stamp %s\n", line)
	return nil
}

// configHash is the manifest config_hash of cfg. RunPipeline fills the
// manifest before its first stage, so a run on an already cancelled
// context returns the hash without running anything.
func configHash(cfg cloudmap.Config) string {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, rep, _ := cloudmap.RunPipeline(ctx, nil, cfg, cloudmap.RunOptions{})
	if rep == nil {
		return "unknown"
	}
	return rep.Manifest.ConfigHash
}
