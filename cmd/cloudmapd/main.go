// Command cloudmapd is the resident form of the reproduction: a daemon
// that keeps a live peering map of the simulated Amazon fabric and serves
// it over HTTP while re-running the inference pipeline on recurring epochs.
//
// Usage:
//
//	cloudmapd [-scale small|medium|paper] [-seed N] [-workers N]
//	          [-addr 127.0.0.1:7080] [-addr-file F]
//	          [-epochs N] [-epoch-every 0s] [-churn-plan plan.json]
//	          [-state-dir DIR] [-checkpoint-every N]
//	          [-epoch-timeout 0s] [-epoch-retries 2] [-retry-backoff 1s]
//	          [-history-limit N] [-watch-keepalive 30s]
//	          [-drain-timeout 30s] [-log-level info]
//	          [-agents URL,URL,...] [-lease-timeout 60s]
//
// Each epoch the daemon derives the next world state from the churn plan
// (re-homed prefixes, facility tenant moves, DNS renames — all
// deterministic in seed and epoch number), then runs the pipeline
// incrementally: stages whose input hashes are unchanged since the last
// successful epoch are skipped, annotation-only changes replay the checkpointed
// probing campaigns instead of re-probing, and only genuinely dependent
// inference re-executes. The resulting map diffs against the previous
// epoch and the deltas stream to watchers.
//
// The HTTP surface on -addr serves the query API (/v1/status,
// /v1/peerings, /v1/deltas, /v1/watch, /v1/fleet) alongside the admin
// plane (/metrics, /progress, /logz, /debug/pprof/). cloudmapctl is the
// CLI client. With -agents, /v1/fleet reports live per-agent health
// (state, heartbeat age, lease accounting, throughput) and /metrics grows
// per-agent service.agent.<id>.* series.
//
// With -state-dir the daemon is crash-safe: every epoch is fsynced to a
// CRC-framed journal before the loop advances, the store checkpoints every
// -checkpoint-every epochs, and a daemon restarted on the same state dir —
// even after kill -9 mid-epoch — rehydrates the published map, re-runs the
// interrupted epoch, and continues the journal byte-identically to an
// uninterrupted run. Failed epochs are retried with backoff and, once
// -epoch-retries is exhausted, published degraded (previous map, empty
// delta set) rather than killing the process.
//
// Shutdown is graceful: the first SIGINT/SIGTERM drains the in-flight
// epoch, flushes the epoch journal and checkpoints, and gives in-flight
// HTTP requests -drain-timeout to finish; a second signal aborts hard.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cloudmap"
	"cloudmap/internal/metrics"
	"cloudmap/internal/obs"
	"cloudmap/internal/service"
)

// splitAgents parses the -agents list: comma-separated base URLs, empty
// entries dropped.
func splitAgents(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

func main() {
	scale := flag.String("scale", "small", "topology scale: small, medium, or paper")
	seed := flag.Uint64("seed", 1, "generation seed")
	workers := flag.Int("workers", 0, "parallel probing workers; <=0 uses all CPUs (output is identical regardless)")
	skipBdrmap := flag.Bool("skip-bdrmap", true, "skip the §8 bdrmap baseline each epoch")
	addr := flag.String("addr", "127.0.0.1:7080", "serve the query API and admin plane on this address (\":0\" picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	epochs := flag.Int("epochs", 0, "stop after N epochs; 0 runs until signalled")
	epochEvery := flag.Duration("epoch-every", 0, "wall-clock pause between epochs (scheduling only; results are virtual-time)")
	churnPlan := flag.String("churn-plan", "", "evolve the world between epochs from this JSON plan (default: a moderate built-in plan; see testdata/churnplans)")
	stateDir := flag.String("state-dir", "", "keep all durable state (epoch journal, probing and store checkpoints) here; a restart on the same dir resumes where the previous process stopped")
	checkpointEvery := flag.Int("checkpoint-every", 0, "write a store checkpoint every N epochs (bounds recovery replay; 0 = 5 with -state-dir)")
	epochTimeout := flag.Duration("epoch-timeout", 0, "per-epoch deadline; an epoch exceeding it fails and is retried (0 disables)")
	epochRetries := flag.Int("epoch-retries", 2, "retries before a failed epoch is published degraded")
	retryBackoff := flag.Duration("retry-backoff", time.Second, "pause before the first retry, doubling per retry")
	historyLimit := flag.Int("history-limit", 0, "retain at most N epochs of deltas; older askers are told to resync (0 = unlimited)")
	watchKeepalive := flag.Duration("watch-keepalive", 0, "SSE comment interval on idle /v1/watch streams (0 = 30s, negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight HTTP requests at shutdown")
	agents := flag.String("agents", "", "comma-separated cloudmapagent base URLs (e.g. http://127.0.0.1:7091,http://127.0.0.1:7092); probing campaigns dispatch chunks to the fleet, falling back to local execution when no agent can finish a chunk")
	leaseTimeout := flag.Duration("lease-timeout", 0, "per-lease deadline for dispatched chunks; a straggling agent is marked lost and the chunk re-dispatches (0 = 60s)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		log.Fatal(err)
	}
	ring := new(obs.LogRing)

	var cfg cloudmap.Config
	switch *scale {
	case "small":
		cfg = cloudmap.SmallConfig()
	case "medium":
		cfg = cloudmap.MediumConfig()
	case "paper":
		cfg = cloudmap.DefaultConfig()
	default:
		log.Fatalf("unknown scale %q (want small, medium, or paper)", *scale)
	}
	cfg.Topology.Seed = *seed
	cfg.Workers = *workers
	cfg.SkipBdrmap = *skipBdrmap

	churn := service.DefaultChurnPlan()
	if *churnPlan != "" {
		p, err := service.LoadChurnPlan(*churnPlan)
		if err != nil {
			log.Fatal(err)
		}
		churn = p
	}

	reg := metrics.NewRegistry()
	daemon, err := service.New(service.Config{
		Pipeline:        cfg,
		Churn:           churn,
		Epochs:          *epochs,
		EpochEvery:      *epochEvery,
		StateDir:        *stateDir,
		CheckpointEvery: *checkpointEvery,
		EpochTimeout:    *epochTimeout,
		EpochRetries:    *epochRetries,
		RetryBackoff:    *retryBackoff,
		HistoryLimit:    *historyLimit,
		WatchKeepalive:  *watchKeepalive,
		Agents:          splitAgents(*agents),
		LeaseTimeout:    *leaseTimeout,
		Metrics:         reg,
		Progress:        obs.NewProgress(reg),
		Log:             slog.New(slog.NewJSONHandler(io.MultiWriter(os.Stderr, ring), &slog.HandlerOptions{Level: level})),
	})
	if err != nil {
		log.Fatal(err)
	}
	if rec := daemon.Recovery(); rec.Recovered {
		fmt.Printf("cloudmapd recovered: resuming after epoch %d (checkpoint %d, %d journal records replayed)\n",
			rec.LastEpoch, rec.CheckpointEpoch, rec.ReplayedEntries)
	}

	mux := daemon.Handler()
	mux.Handle("/logz", ring)
	srv, err := obs.ServeHandler(*addr, mux)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cloudmapd serving on http://%s (/v1/status, /v1/peerings, /v1/deltas, /v1/watch, /v1/fleet)\n", srv.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	// First signal: graceful drain (finish the epoch, flush the journal,
	// let in-flight requests complete). Second signal: hard abort.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "cloudmapd: draining (signal again to abort)")
		daemon.Stop()
		<-sigs
		fmt.Fprintln(os.Stderr, "cloudmapd: aborting")
		cancel()
	}()

	runErr := daemon.Run(ctx)

	shutCtx, shutCancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		// Streaming watchers hold their connections open past the drain
		// deadline; close them rather than hanging shutdown forever.
		srv.Close()
	}

	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		log.Fatal(runErr)
	}
	fmt.Printf("cloudmapd stopped after epoch %d\n", daemon.Epoch())
}
