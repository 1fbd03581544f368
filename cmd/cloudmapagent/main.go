// Command cloudmapagent is a remote probe agent: it builds the same
// simulated world as its controller (same scale, seed, and fault plan),
// then serves the dispatch lease protocol — GET /agent/v1/health heartbeats
// and POST /agent/v1/lease work leases — executing campaign chunks against
// its local probing plane and streaming the results back as CRC-framed
// binary tracefiles.
//
// Usage:
//
//	cloudmapagent [-scale small|medium|paper] [-seed N] [-workers N]
//	              [-addr 127.0.0.1:0] [-addr-file F] [-agent-id ID]
//	              [-fault-plan plan.json] [-agent-plan plan.json]
//	              [-log-level info] [-debug-addr HOST:PORT]
//
// The agent's listener doubles as its admin plane: /metrics, /metrics.json,
// /progress, /logz, and /debug/pprof/ are served next to the lease routes,
// so every agent in a fleet is individually scrapeable. -debug-addr mounts
// the same admin plane on a second listener (for deployments where the
// lease port is firewalled away from operators).
//
// The controller (cloudmapd -agents, or cloudmap with dispatch wired in)
// refuses to exchange work with an agent whose world fingerprint — the hash
// of the topology config and fault plan — differs from its own, so a
// mis-started agent degrades to "ignored", never to "wrong results".
//
// -agent-plan injects the deterministic agent-fault schedule (crashes,
// stalls, partitions; see internal/faults.AgentPlan) for chaos drills: a
// chaos crash exits the process with status 3 so a supervisor (or the
// smoke script) can observe it.
//
// Shutdown is two-phase: the first SIGINT/SIGTERM begins a drain — new
// leases are refused with 503 while in-flight leases finish — and exits
// cleanly once the agent is idle; a second signal aborts immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloudmap"
	"cloudmap/internal/dispatch"
	"cloudmap/internal/faults"
	"cloudmap/internal/metrics"
	"cloudmap/internal/obs"
)

func main() {
	scale := flag.String("scale", "small", "topology scale: small, medium, or paper (must match the controller)")
	seed := flag.Uint64("seed", 1, "generation seed (must match the controller)")
	workers := flag.Int("workers", 0, "concurrently executing leases; <=0 uses all CPUs")
	addr := flag.String("addr", "127.0.0.1:0", "serve the agent protocol on this address (\":0\" picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	agentID := flag.String("agent-id", "", "agent name in logs, health documents, and chaos draws (default: agent-<pid>)")
	faultPlan := flag.String("fault-plan", "", "probe-side fault plan JSON (must match the controller; see testdata/faultplans)")
	agentPlan := flag.String("agent-plan", "", "agent chaos plan JSON: deterministic crashes, stalls, partitions (see testdata/agentplans)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, or error")
	debugAddr := flag.String("debug-addr", "", "serve a second admin plane (/metrics, /progress, pprof) on this address")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight leases on graceful shutdown")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		log.Fatal(err)
	}
	ring := new(obs.LogRing)
	logger := slog.New(slog.NewJSONHandler(io.MultiWriter(os.Stderr, ring), &slog.HandlerOptions{Level: level}))

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
	if *faultPlan != "" {
		plan, err := faults.LoadPlan(*faultPlan)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = plan
	}

	id := *agentID
	if id == "" {
		id = fmt.Sprintf("agent-%d", os.Getpid())
	}

	var chaos *faults.AgentChaos
	if *agentPlan != "" {
		plan, err := faults.LoadAgentPlan(*agentPlan)
		if err != nil {
			log.Fatal(err)
		}
		chaos, err = plan.Bind(id)
		if err != nil {
			log.Fatal(err)
		}
		logger.With("component", "agent").Info("chaos plan armed", "agent", id, "plan", *agentPlan)
	}

	sys, err := cloudmap.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fp := dispatch.Fingerprint(cfg.Topology, cfg.Faults)

	reg := metrics.NewRegistry()
	prog := obs.NewProgress(reg)
	agent := dispatch.NewAgent(dispatch.AgentOptions{
		ID:          id,
		Prober:      sys.Prober,
		Fingerprint: fp,
		Workers:     *workers,
		Chaos:       chaos,
		Log:         logger,
		Metrics:     reg,
		Progress:    prog,
		// Default Exit: os.Exit(3) — a chaos crash kills the real process.
	})

	// One listener serves leases and the admin plane together; the agent's
	// /metrics, /progress, /logz, and pprof ride next to the lease routes.
	mux := obs.NewMux(reg, prog)
	agent.Mount(mux)
	mux.Handle("/logz", ring)

	srv, err := obs.ServeHandler(*addr, mux)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cloudmapagent %s serving on http://%s (world %s)\n", id, srv.Addr(), fp)
	if *debugAddr != "" {
		dmux := obs.NewMux(reg, prog)
		dmux.Handle("/logz", ring)
		dsrv, err := obs.ServeHandler(*debugAddr, dmux)
		if err != nil {
			log.Fatal(err)
		}
		defer dsrv.Close()
		fmt.Printf("cloudmapagent %s debug plane on http://%s\n", id, dsrv.Addr())
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	// First signal: drain. Refuse new leases (the controller redispatches
	// them), let in-flight leases finish, then stop serving. A second
	// signal — or the drain timeout — aborts immediately.
	fmt.Fprintln(os.Stderr, "cloudmapagent: draining (signal again to abort)")
	agent.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "cloudmapagent: aborting")
		cancel()
	}()
	if err := agent.Drain(ctx); err != nil {
		logger.With("component", "agent").Warn("drain aborted", "agent", id, "err", err)
		srv.Close()
		os.Exit(1)
	}
	srv.Shutdown(ctx)
	fmt.Fprintln(os.Stderr, "cloudmapagent: stopped")
}
