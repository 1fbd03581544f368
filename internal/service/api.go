package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"cloudmap/internal/dispatch"
	"cloudmap/internal/netblock"
	"cloudmap/internal/obs"
)

// StatusReply is /v1/status's document.
type StatusReply struct {
	Epoch    uint64 `json:"epoch"`
	Peerings int    `json:"peerings"`
	PeerASes int    `json:"peer_ases"`
	// StagesRun and StagesSkipped describe the last epoch's scheduling:
	// what re-ran and what the incremental scheduler hash-skipped.
	StagesRun     []string `json:"stages_run,omitempty"`
	StagesSkipped []string `json:"stages_skipped,omitempty"`
	// Summary carries the pipeline's headline quantities (hidden share,
	// VPI share, ...).
	Summary map[string]float64 `json:"summary,omitempty"`
}

// PeeringsReply is /v1/peerings's document.
type PeeringsReply struct {
	Epoch    uint64    `json:"epoch"`
	Peerings []Peering `json:"peerings"`
}

// DeltasReply is /v1/deltas's document.
type DeltasReply struct {
	Since  uint64         `json:"since"`
	Epoch  uint64         `json:"epoch"`
	Epochs []*EpochDeltas `json:"epochs"`
}

// ResyncReply is the 410 Gone document for delta requests older than the
// retained history: the increments are lost, re-fetch /v1/peerings and
// resume watching from Epoch.
type ResyncReply struct {
	Resync bool   `json:"resync"`
	Epoch  uint64 `json:"epoch"`
}

// FleetReply is /v1/fleet's document: live per-agent health from the
// dispatch controller plus the fleet-wide lease totals. Enabled is false
// (and Agents empty) when the daemon probes in-process with no agent fleet.
type FleetReply struct {
	Epoch   uint64               `json:"epoch"`
	Enabled bool                 `json:"enabled"`
	Agents  []dispatch.AgentInfo `json:"agents"`
	Totals  dispatch.Stats       `json:"totals"`
}

// Handler builds the daemon's HTTP surface: the query API under /v1/
// mounted on the obs admin plane (/metrics, /progress, /debug/pprof/), so
// one listener serves both. Every API route is Instrument-wrapped, so the
// daemon's /metrics carries per-route http.* request telemetry. The caller
// owns the logger, so it mounts /logz on the returned mux.
func (d *Daemon) Handler() *http.ServeMux {
	mux := obs.NewMux(d.reg, d.cfg.Progress)
	mux.Handle("/v1/status", obs.Instrument(d.reg, "v1_status", http.HandlerFunc(d.handleStatus)))
	mux.Handle("/v1/peerings", obs.Instrument(d.reg, "v1_peerings", http.HandlerFunc(d.handlePeerings)))
	mux.Handle("/v1/deltas", obs.Instrument(d.reg, "v1_deltas", http.HandlerFunc(d.handleDeltas)))
	mux.Handle("/v1/watch", obs.Instrument(d.reg, "v1_watch", http.HandlerFunc(d.handleWatch)))
	mux.Handle("/v1/fleet", obs.Instrument(d.reg, "v1_fleet", http.HandlerFunc(d.handleFleet)))
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (d *Daemon) handleStatus(w http.ResponseWriter, _ *http.Request) {
	reply := StatusReply{Epoch: d.Epoch()}
	if snap := d.store.Current(); snap != nil {
		reply.Peerings = len(snap.Peerings)
		ases := map[uint32]struct{}{}
		for _, p := range snap.Peerings {
			ases[p.ASN] = struct{}{}
		}
		reply.PeerASes = len(ases)
	}
	if rep := d.LastReport(); rep != nil {
		reply.StagesRun = rep.StagesRun()
		reply.StagesSkipped = rep.StagesSkipped()
		reply.Summary = rep.Summary
	}
	writeJSON(w, reply)
}

func (d *Daemon) handlePeerings(w http.ResponseWriter, r *http.Request) {
	snap := d.store.Current()
	if snap == nil {
		http.Error(w, "no epoch completed yet", http.StatusServiceUnavailable)
		return
	}
	reply := PeeringsReply{Epoch: snap.Epoch, Peerings: snap.Peerings}
	q := r.URL.Query()
	switch {
	case q.Get("cbi") != "":
		ip, err := netblock.ParseIP(q.Get("cbi"))
		if err != nil {
			http.Error(w, fmt.Sprintf("bad cbi: %v", err), http.StatusBadRequest)
			return
		}
		reply.Peerings = nil
		if p, ok := snap.ByCBI(ip); ok {
			reply.Peerings = []Peering{p}
		}
	case q.Get("as") != "":
		asn, err := strconv.ParseUint(q.Get("as"), 10, 32)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad as: %v", err), http.StatusBadRequest)
			return
		}
		reply.Peerings = snap.ByAS(uint32(asn))
	case q.Get("metro") != "":
		reply.Peerings = snap.ByMetro(q.Get("metro"))
	}
	if reply.Peerings == nil {
		reply.Peerings = []Peering{}
	}
	writeJSON(w, reply)
}

// dispatch is the daemon's dispatch controller, nil when probing runs
// in-process (or, in tests, when the daemon has no session at all).
func (d *Daemon) dispatch() *dispatch.Controller {
	if d.session == nil {
		return nil
	}
	return d.session.Dispatch()
}

func (d *Daemon) handleFleet(w http.ResponseWriter, _ *http.Request) {
	reply := FleetReply{Epoch: d.Epoch(), Agents: []dispatch.AgentInfo{}}
	if c := d.dispatch(); c != nil {
		reply.Enabled = true
		fleet := c.Fleet()
		reply.Agents = fleet.Agents
		reply.Totals = fleet.Stats
	}
	writeJSON(w, reply)
}

func (d *Daemon) handleDeltas(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad since: %v", err), http.StatusBadRequest)
			return
		}
		since = v
	}
	eds, ok := d.store.DeltasSince(since)
	if !ok {
		// The retention limit dropped epochs the caller would need; a
		// partial answer would silently skip changes. 410 Gone + an explicit
		// resync document beats pretending.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		json.NewEncoder(w).Encode(ResyncReply{Resync: true, Epoch: d.Epoch()})
		return
	}
	reply := DeltasReply{Since: since, Epoch: d.Epoch(), Epochs: eds}
	if reply.Epochs == nil {
		reply.Epochs = []*EpochDeltas{}
	}
	writeJSON(w, reply)
}

// handleWatch streams epoch delta sets as server-sent events: one
// `event: epoch` per completed epoch with the EpochDeltas JSON as data.
// Past epochs (from ?since=N, default: all recorded) replay first, then the
// stream goes live until the client disconnects or the server shuts down.
//
// Hardening: a periodic SSE comment keepalive keeps idle connections open
// through proxies and surfaces dead peers as write errors; a subscriber
// that stalls long enough to overflow its bounded buffer is evicted by the
// store, and the handler then sends `event: resync` and ends the stream —
// the client re-fetches /v1/peerings and reconnects. The same resync event
// answers a replay request older than the retained delta history.
func (d *Daemon) handleWatch(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad since: %v", err), http.StatusBadRequest)
			return
		}
		since = v
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Subscribe before replaying history so no epoch can fall in the gap;
	// the last-sent guard below drops the overlap.
	live, cancel := d.store.Subscribe()
	defer cancel()

	sent := since
	emit := func(ed *EpochDeltas) error {
		if ed.Epoch <= sent {
			return nil
		}
		sent = ed.Epoch
		data, err := json.Marshal(ed)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "event: epoch\nid: %d\ndata: %s\n\n", ed.Epoch, data); err != nil {
			return err
		}
		fl.Flush()
		return nil
	}
	resync := func() {
		fmt.Fprintf(w, "event: resync\ndata: {\"resync\":true,\"epoch\":%d}\n\n", d.Epoch())
		fl.Flush()
	}
	catchUp := func() (alive bool) {
		eds, ok := d.store.DeltasSince(sent)
		if !ok {
			// The requested (or fallen-behind) position predates the
			// retained history: incremental catch-up is impossible.
			resync()
			return false
		}
		for _, ed := range eds {
			if err := emit(ed); err != nil {
				return false
			}
		}
		return true
	}
	if !catchUp() {
		return
	}

	var keepalive <-chan time.Time
	if d.cfg.WatchKeepalive > 0 {
		t := time.NewTicker(d.cfg.WatchKeepalive)
		defer t.Stop()
		keepalive = t.C
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-d.Done():
			return
		case <-keepalive:
			// SSE comment line: ignored by clients, but keeps intermediaries
			// from idling the connection out and turns a dead peer into a
			// prompt write error instead of a leaked handler.
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case _, ok := <-live:
			if !ok {
				// Evicted: the store closed our subscription because this
				// client stalled past its buffer. Tell it to start over.
				resync()
				return
			}
			// Re-read from the store rather than trusting the notification
			// alone: a watcher that skipped notifications catches up here.
			if !catchUp() {
				return
			}
		}
	}
}
