// Tests live in dispatch_test (the external test package) so they can build
// real worlds through the root cloudmap package, which itself imports
// internal/dispatch.
package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudmap"
	"cloudmap/internal/dispatch"
	"cloudmap/internal/netblock"
	"cloudmap/internal/probe"
	"cloudmap/internal/tracefile"
)

// world builds the shared small test world once; the prober is stateless
// across campaigns, so tests share it freely.
func world(t *testing.T) (*cloudmap.System, cloudmap.Config) {
	t.Helper()
	worldOnce(t)
	return sharedSys, sharedCfg
}

var (
	sharedSys *cloudmap.System
	sharedCfg cloudmap.Config
)

func worldOnce(t *testing.T) {
	t.Helper()
	if sharedSys != nil {
		return
	}
	cfg := cloudmap.SmallConfig()
	sys, err := cloudmap.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharedSys, sharedCfg = sys, cfg
}

// campaignArgs bundles one campaign's inputs.
type campaignArgs struct {
	vms     []probe.VMRef
	targets []netblock.IP
	pol     probe.RetryPolicy
}

func smallCampaign(t *testing.T, sys *cloudmap.System) campaignArgs {
	t.Helper()
	vms := sys.Prober.VMs("amazon")
	targets := probe.Round1Targets(sys.Topology, probe.Round1Options{})
	if len(vms) == 0 || len(targets) == 0 {
		t.Fatalf("degenerate campaign: %d vms, %d targets", len(vms), len(targets))
	}
	return campaignArgs{vms: vms, targets: targets, pol: probe.RetryPolicy{MaxAttempts: 2, BackoffSec: 1, BackoffFactor: 2}}
}

// runLocal is the baseline every distributed variant must match.
func runLocal(t *testing.T, sys *cloudmap.System, ca campaignArgs, workers int) ([]probe.Trace, probe.CampaignStats) {
	t.Helper()
	var traces []probe.Trace
	stats, err := sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, nil, ca.vms, ca.targets, workers, ca.pol, 1, func(tr probe.Trace) {
		traces = append(traces, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	return traces, stats
}

// quantize round-trips traces through the v2 binary encoding, applying the
// same µs RTT quantization a lease result frame (or a checkpoint) carries.
// Remote-executed chunks arrive quantized; nothing downstream of the sink
// reads RTT at sub-µs precision (checkpoint replay relies on the same
// property), so reports stay byte-identical either way. Tests that exercise
// remote execution quantize their local baseline to compare trace-for-trace.
func quantize(t *testing.T, traces []probe.Trace) []probe.Trace {
	t.Helper()
	var buf bytes.Buffer
	w := tracefile.NewWriter(&buf)
	for _, tr := range traces {
		w.Write(tr)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	out := make([]probe.Trace, 0, len(traces))
	if _, err := tracefile.Replay(&buf, func(tr probe.Trace) { out = append(out, tr) }); err != nil {
		t.Fatal(err)
	}
	return out
}

func newAgentServer(t *testing.T, sys *cloudmap.System, id, fp string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(dispatch.NewAgent(dispatch.AgentOptions{
		ID: id, Prober: sys.Prober, Fingerprint: fp,
	}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func fastOptions(agents ...string) dispatch.Options {
	return dispatch.Options{
		Agents: agents,
		// Generous: under -race a chunk can take seconds, and a spurious
		// expiry degrades the chunk to local execution, which is correct
		// behaviour but not what these tests pin.
		LeaseTimeout: 2 * time.Minute,
		Heartbeat:    50 * time.Millisecond,
		RetryBackoff: 10 * time.Millisecond,
	}
}

// TestDistributedMatchesLocal: one healthy agent; the leased campaign
// delivers the same traces in the same order, and the same stats, as the
// in-process engine.
func TestDistributedMatchesLocal(t *testing.T) {
	sys, cfg := world(t)
	ca := smallCampaign(t, sys)
	rawTraces, wantStats := runLocal(t, sys, ca, 4)
	wantTraces := quantize(t, rawTraces)

	fp := dispatch.Fingerprint(cfg.Topology, cfg.Faults)
	srv := newAgentServer(t, sys, "a1", fp)
	ctl := dispatch.NewController(fastOptions(srv.URL), fp)
	defer ctl.Close()

	var traces []probe.Trace
	stats, err := sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, ctl, ca.vms, ca.targets, 3, ca.pol, 1, func(tr probe.Trace) {
		traces = append(traces, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Quantize both sides: remote chunks arrive µs-quantized already, but a
	// chunk that legitimately degraded to local execution would not be, and
	// either way the bytes the pipeline consumes are identical.
	if got := quantize(t, traces); !reflect.DeepEqual(got, wantTraces) {
		t.Fatalf("distributed traces differ from local: %d vs %d", len(got), len(wantTraces))
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Fatalf("distributed stats differ: %+v vs %+v", stats, wantStats)
	}
	st := ctl.Stats()
	if st.LeasesGranted == 0 {
		t.Error("no leases granted on a healthy fleet")
	}
	if st.ChunksLocal != 0 {
		t.Errorf("healthy fleet still ran %d chunks locally", st.ChunksLocal)
	}
}

// TestNoLiveAgentsFallsBackLocal: a fleet of unreachable agents degrades to
// a fully local campaign with identical output.
func TestNoLiveAgentsFallsBackLocal(t *testing.T) {
	sys, cfg := world(t)
	ca := smallCampaign(t, sys)
	wantTraces, wantStats := runLocal(t, sys, ca, 4)

	fp := dispatch.Fingerprint(cfg.Topology, cfg.Faults)
	ctl := dispatch.NewController(fastOptions("http://127.0.0.1:1"), fp) // reserved port: nothing listens
	defer ctl.Close()

	var traces []probe.Trace
	stats, err := sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, ctl, ca.vms, ca.targets, 2, ca.pol, 1, func(tr probe.Trace) {
		traces = append(traces, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traces, wantTraces) || !reflect.DeepEqual(stats, wantStats) {
		t.Fatal("local fallback diverged from the in-process engine")
	}
	st := ctl.Stats()
	if st.ChunksLocal == 0 {
		t.Error("no chunks counted as local despite a dead fleet")
	}
	if st.LeasesGranted != 0 {
		t.Errorf("%d leases granted to a dead fleet", st.LeasesGranted)
	}
}

// TestFingerprintMismatchKeepsAgentOut: an agent probing a different world
// never receives work — its heartbeat fails the fingerprint check — and the
// campaign still completes locally with correct output.
func TestFingerprintMismatchKeepsAgentOut(t *testing.T) {
	sys, cfg := world(t)
	ca := smallCampaign(t, sys)
	wantTraces, _ := runLocal(t, sys, ca, 4)

	fp := dispatch.Fingerprint(cfg.Topology, cfg.Faults)
	srv := newAgentServer(t, sys, "wrong-world", "deadbeef00000000")
	ctl := dispatch.NewController(fastOptions(srv.URL), fp)
	defer ctl.Close()

	var traces []probe.Trace
	_, err := sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, ctl, ca.vms, ca.targets, 2, ca.pol, 1, func(tr probe.Trace) {
		traces = append(traces, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.LiveAgents() != 0 {
		t.Error("mismatched-world agent counted live")
	}
	if got := ctl.Stats().LeasesGranted; got != 0 {
		t.Errorf("%d leases granted to a mismatched world", got)
	}
	if !reflect.DeepEqual(traces, wantTraces) {
		t.Fatal("output diverged under fingerprint mismatch")
	}
}

// TestAgentRefusesBadLeases: the protocol-level guards — fingerprint 409,
// target CRC 400, malformed body 400.
func TestAgentRefusesBadLeases(t *testing.T) {
	sys, cfg := world(t)
	ca := smallCampaign(t, sys)
	fp := dispatch.Fingerprint(cfg.Topology, cfg.Faults)
	srv := newAgentServer(t, sys, "a1", fp)

	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/agent/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	chunk := probe.ChunkCampaign(ca.vms, ca.targets)[0]
	targets := ca.targets[chunk.From:chunk.To]
	good := dispatch.Lease{ID: "l1", Fingerprint: fp, Chunk: chunk, Targets: targets,
		TargetsCRC: dispatch.TargetsCRC(targets), Retry: ca.pol, Budget: -1, Epoch: 1}

	wrongFP := good
	wrongFP.Fingerprint = "0000000000000000"
	b, _ := json.Marshal(wrongFP)
	if code := post(b); code != http.StatusConflict {
		t.Errorf("fingerprint mismatch: got %d, want 409", code)
	}

	wrongCRC := good
	wrongCRC.TargetsCRC++
	b, _ = json.Marshal(wrongCRC)
	if code := post(b); code != http.StatusBadRequest {
		t.Errorf("crc mismatch: got %d, want 400", code)
	}

	if code := post([]byte(`{"lease_id": 7}`)); code != http.StatusBadRequest {
		t.Errorf("malformed lease: got %d, want 400", code)
	}

	b, _ = json.Marshal(good)
	if code := post(b); code != http.StatusOK {
		t.Errorf("valid lease: got %d, want 200", code)
	}
}

// TestTargetsCRC: content- and order-sensitive, stable across calls.
func TestTargetsCRC(t *testing.T) {
	a := []netblock.IP{1, 2, 3}
	if dispatch.TargetsCRC(a) != dispatch.TargetsCRC([]netblock.IP{1, 2, 3}) {
		t.Error("CRC not stable")
	}
	if dispatch.TargetsCRC(a) == dispatch.TargetsCRC([]netblock.IP{3, 2, 1}) {
		t.Error("CRC order-insensitive")
	}
	if dispatch.TargetsCRC(a) == dispatch.TargetsCRC([]netblock.IP{1, 2, 4}) {
		t.Error("CRC content-insensitive")
	}
}

// TestForgedLeaseResultRejected: an agent reply is outside input. A relay
// that hands the real agent a rotated target list (with a matching CRC)
// gets back a complete, well-framed result for the wrong targets; the
// controller must refuse every such lease and run the chunks locally, so
// the campaign still equals the in-process one.
func TestForgedLeaseResultRejected(t *testing.T) {
	sys, cfg := world(t)
	ca := smallCampaign(t, sys)
	ca.vms, ca.targets = ca.vms[:2], ca.targets[:2*1024+100]
	wantTraces, wantStats := runLocal(t, sys, ca, 2)

	fp := dispatch.Fingerprint(cfg.Topology, cfg.Faults)
	upstream := newAgentServer(t, sys, "a1", fp)
	relay := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			resp, err := http.Get(upstream.URL + r.URL.Path)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
			return
		}
		var lease dispatch.Lease
		if err := json.NewDecoder(r.Body).Decode(&lease); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		lease.Targets = append(lease.Targets[1:], lease.Targets[0])
		lease.TargetsCRC = dispatch.TargetsCRC(lease.Targets)
		body, _ := json.Marshal(lease)
		resp, err := http.Post(upstream.URL+r.URL.Path, "application/json", bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(relay.Close)
	ctl := dispatch.NewController(fastOptions(relay.URL), fp)
	defer ctl.Close()

	var traces []probe.Trace
	stats, err := sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, ctl, ca.vms, ca.targets, 2, ca.pol, 1, func(tr probe.Trace) {
		traces = append(traces, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traces, wantTraces) || !reflect.DeepEqual(stats, wantStats) {
		t.Fatal("forged lease results reached the sink")
	}
	chunks := int64(len(probe.ChunkCampaign(ca.vms, ca.targets)))
	st := ctl.Stats()
	if st.ChunksLocal != chunks {
		t.Errorf("%d of %d chunks ran locally, want all", st.ChunksLocal, chunks)
	}
	if st.LeaseFailures == 0 || st.LeaseFailures != st.LeasesGranted {
		t.Errorf("%d lease failures of %d leases, want every lease refused", st.LeaseFailures, st.LeasesGranted)
	}
}

// TestDeadFleetLogsOnce: chunks that find no live agent decline one by
// one, but the outage is logged once, not once per chunk.
func TestDeadFleetLogsOnce(t *testing.T) {
	sys, cfg := world(t)
	ca := smallCampaign(t, sys)
	ca.vms, ca.targets = ca.vms[:2], ca.targets[:3*1024]

	var logBuf bytes.Buffer
	opts := fastOptions("http://127.0.0.1:1") // reserved port: nothing listens
	opts.Log = slog.New(slog.NewJSONHandler(&logBuf, nil))
	ctl := dispatch.NewController(opts, dispatch.Fingerprint(cfg.Topology, cfg.Faults))
	defer ctl.Close()
	for range 2 {
		if _, err := sys.Prober.CampaignRetryObsCtx(context.Background(), nil, nil, ctl, ca.vms, ca.targets, 2, ca.pol, 1, func(probe.Trace) {}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ctl.Stats().ChunksLocal, int64(2*len(probe.ChunkCampaign(ca.vms, ca.targets))); got != want {
		t.Errorf("%d chunks ran locally, want %d", got, want)
	}
	logs := logBuf.String()
	if n := strings.Count(logs, `"msg":"no live agents"`); n != 1 {
		t.Errorf("dead fleet logged %d \"no live agents\" records, want 1:\n%s", n, logs)
	}
	if strings.Contains(logs, `"msg":"chunk running locally"`) {
		t.Errorf("dead fleet logged per-chunk fallbacks:\n%s", logs)
	}
}
