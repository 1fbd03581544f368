// Fleet-observability tests: agent drain semantics, the controller's
// per-agent health states, and the telemetry self-reports that feed them.
package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cloudmap/internal/dispatch"
	"cloudmap/internal/faults"
	"cloudmap/internal/probe"
)

// stallingAgent builds an in-process agent whose chaos plan stalls every
// lease for sec seconds — long enough to observe it mid-flight.
func stallingAgent(t *testing.T, sec float64) (*dispatch.Agent, *httptest.Server, dispatch.Lease) {
	t.Helper()
	sys, cfg := world(t)
	ca := smallCampaign(t, sys)
	fp := dispatch.Fingerprint(cfg.Topology, cfg.Faults)
	plan := &faults.AgentPlan{Seed: 1, WindowChunks: 1, Stall: &faults.AgentStallPlan{Prob: 1, Sec: sec}}
	chaos, err := plan.Bind("drainee")
	if err != nil {
		t.Fatal(err)
	}
	agent := dispatch.NewAgent(dispatch.AgentOptions{ID: "drainee", Prober: sys.Prober, Fingerprint: fp, Chaos: chaos})
	srv := httptest.NewServer(agent.Handler())
	t.Cleanup(srv.Close)

	chunk := probe.ChunkCampaign(ca.vms, ca.targets)[0]
	targets := ca.targets[chunk.From:chunk.To]
	lease := dispatch.Lease{ID: "l1", Fingerprint: fp, Chunk: chunk, Targets: targets,
		TargetsCRC: dispatch.TargetsCRC(targets), Retry: ca.pol, Budget: -1, Epoch: 1}
	return agent, srv, lease
}

func postLease(ctx context.Context, srv *httptest.Server, lease dispatch.Lease) (int, error) {
	body, _ := json.Marshal(lease)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/agent/v1/lease", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAgentDrain: the two-phase shutdown contract. BeginDrain refuses new
// leases with 503 while the in-flight lease — stalled mid-execution — runs
// to completion, and Drain returns once the agent is idle.
func TestAgentDrain(t *testing.T) {
	agent, srv, lease := stallingAgent(t, 0.5)

	status := make(chan int, 1)
	go func() {
		code, err := postLease(context.Background(), srv, lease)
		if err != nil {
			t.Error(err)
		}
		status <- code
	}()
	waitFor(t, "lease in flight", func() bool { return agent.Stats().Inflight == 1 })

	agent.BeginDrain()
	if st := agent.Stats(); !st.Draining {
		t.Error("Stats does not report draining")
	}
	// The health document carries the draining flag to the controller.
	resp, err := http.Get(srv.URL + "/agent/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	var h dispatch.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !h.Stats.Draining || h.Stats.Inflight != 1 {
		t.Errorf("health self-report = %+v, want draining with 1 in flight", h.Stats)
	}

	// New work is refused while draining...
	if code, err := postLease(context.Background(), srv, lease); err != nil || code != http.StatusServiceUnavailable {
		t.Errorf("lease during drain: code %d err %v, want 503", code, err)
	}
	// ...but the stalled lease still completes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := agent.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := <-status; code != http.StatusOK {
		t.Errorf("in-flight lease finished %d, want 200", code)
	}
	if st := agent.Stats(); st.Inflight != 0 || st.LeasesDone != 1 {
		t.Errorf("post-drain stats = %+v, want idle with 1 lease done", st)
	}
}

// TestAgentDrainAbort: a drain whose context expires (the operator's second
// signal) reports the leases it is abandoning instead of hanging.
func TestAgentDrainAbort(t *testing.T) {
	agent, srv, lease := stallingAgent(t, 30)

	leaseCtx, stopLease := context.WithCancel(context.Background())
	defer stopLease() // unblocks the 30s stall via the request context
	go postLease(leaseCtx, srv, lease)
	waitFor(t, "lease in flight", func() bool { return agent.Stats().Inflight == 1 })

	agent.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := agent.Drain(ctx)
	if err == nil {
		t.Fatal("drain returned nil with a lease still stalled")
	}
	if !strings.Contains(err.Error(), "1 leases still in flight") {
		t.Errorf("drain error %q does not count the abandoned lease", err)
	}
}

// TestFleetStates walks one agent through the controller's full health state
// machine — never-seen, healthy, lost, penalty-box, resurrected — checking
// the /v1/fleet document at each stop, alongside a permanently dead peer.
func TestFleetStates(t *testing.T) {
	sys, cfg := world(t)
	ca := smallCampaign(t, sys)
	fp := dispatch.Fingerprint(cfg.Topology, cfg.Faults)

	agent := dispatch.NewAgent(dispatch.AgentOptions{ID: "a1", Prober: sys.Prober, Fingerprint: fp})
	inner := agent.Handler()
	// The health route is scriptable: 0 answers normally, 1 refuses every
	// heartbeat, 2 alternates — enough successes to show life (oks > 0),
	// never the consecutive run needed to rejoin, pinning "penalty-box".
	var mode, beats atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/agent/v1/health" {
			switch mode.Load() {
			case 1:
				http.Error(w, "scripted outage", http.StatusInternalServerError)
				return
			case 2:
				if beats.Add(1)%2 == 0 {
					http.Error(w, "scripted flap", http.StatusInternalServerError)
					return
				}
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	dead := "http://127.0.0.1:1" // reserved port: nothing listens
	ctl := dispatch.NewController(fastOptions(srv.URL, dead), fp)
	defer ctl.Close()

	byURL := func(f dispatch.Fleet, url string) dispatch.AgentInfo {
		t.Helper()
		for _, a := range f.Agents {
			if a.URL == url {
				return a
			}
		}
		t.Fatalf("agent %s missing from fleet document", url)
		return dispatch.AgentInfo{}
	}
	state := func(url string) string { return byURL(ctl.Fleet(), url).State }

	// Heartbeats start lazily with the first campaign: before it, every
	// agent is lost and never-seen.
	for _, a := range ctl.Fleet().Agents {
		if a.State != "lost" || a.LastHeartbeatMS != -1 {
			t.Errorf("pre-campaign fleet row %+v, want lost / never seen", a)
		}
	}

	if _, err := sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, ctl, ca.vms, ca.targets, 2, ca.pol, 1, func(probe.Trace) {}); err != nil {
		t.Fatal(err)
	}

	fleet := ctl.Fleet()
	live := byURL(fleet, srv.URL)
	if live.State != "healthy" || live.ID != "a1" {
		t.Errorf("live agent row %+v, want healthy a1", live)
	}
	if live.LeasesGranted == 0 || live.Stats.LeasesDone == 0 || live.Stats.TracesProbed == 0 {
		t.Errorf("live agent accounting empty: %+v", live)
	}
	if live.LastHeartbeatMS < 0 {
		t.Errorf("live agent heartbeat age %d, want >= 0", live.LastHeartbeatMS)
	}
	gone := byURL(fleet, dead)
	if gone.State != "lost" || gone.LastHeartbeatMS != -1 || gone.LeasesGranted != 0 {
		t.Errorf("dead agent row %+v, want lost, never seen, no leases", gone)
	}
	if gone.ConsecutiveFails == 0 {
		t.Error("dead agent shows no heartbeat failures")
	}
	if fleet.Stats.LeasesGranted == 0 {
		t.Error("fleet totals show no leases granted")
	}

	// Scripted outage: consecutive heartbeat failures take the agent out.
	mode.Store(1)
	waitFor(t, "agent lost", func() bool { return state(srv.URL) == "lost" })
	// Flapping: alive again but not trusted until the streak completes.
	mode.Store(2)
	waitFor(t, "agent in penalty box", func() bool { return state(srv.URL) == "penalty-box" })
	// Full recovery.
	mode.Store(0)
	waitFor(t, "agent resurrected", func() bool { return state(srv.URL) == "healthy" })
}
