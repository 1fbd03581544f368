package main

import (
	"fmt"

	"cloudmap"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run: what a user of the batch
// reproduction or of the daemon sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_success_rate", "ratio"},
	{"cbi_precision", "ratio"},
	{"peer_as_recall", "ratio"},
	{"owner_accuracy", "ratio"},
	{"pin_accuracy", "ratio"},
	{"pin_coverage", "ratio"},
}

// layerMetrics are the traced run's metrics, minus the per-stage wall
// times, which perLayer adds from the pipeline's declared stages.
var layerMetrics = []metricDef{
	{"topo.generate_s", "s"},
	{"registry.build_s", "s"},
	{"route.new_forwarder_s", "s"},
	{"route.trace_ns", "ns"},
	{"probe.traceroute_ns", "ns"},
	{"probe.campaign_w1_s", "s"},
	{"probe.campaign_wN_s", "s"},
	{"probe.campaign_speedup", "ratio"},
	{"probe.hop_probes", "count"},
	{"probe.retries", "count"},
	{"probe.faulted_attempts", "count"},
	{"probe.retry_recovered_ratio", "ratio"},
	{"border.consume_ns", "ns"},
	{"border.traces", "count"},
	{"tracefile.encode_traces_per_s", "1/s"},
	{"tracefile.replay_w1_traces_per_s", "1/s"},
	{"tracefile.replay_wN_traces_per_s", "1/s"},
	{"tracefile.replay_speedup", "ratio"},
	{"tracefile.bytes_per_trace", "B"},
	{"datasets.serialize_s", "s"},
	{"datasets.load_s", "s"},
	{"datasets.records_quarantined", "count"},
	{"service.churn_apply_s", "s"},
	{"midar.resolve_s", "s"},
	{"verify.run_s", "s"},
	{"pinning.run_s", "s"},
	{"pinning.crossvalidate_s", "s"},
	{"vpi.detect_s", "s"},
	// VPI recall rides here rather than end to end: its denominator is a
	// few dozen ports, so it spreads too widely across seeds for a bound.
	{"vpi.recall", "ratio"},
	{"grouping.classify_s", "s"},
	{"icg.build_s", "s"},
	{"bdrmap.run_s", "s"},
	{"pipeline.other_ms", "ms"},
	{"pipeline.other_pct", "%"},
	{"pipeline.stages_resumed", "count"},
	{"pipeline.stages_skipped", "count"},
	{"obs.journal_overhead_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cycles_per_op", "count"},
}

// stageMetric names a pipeline stage's median wall time.
func stageMetric(stage string) string { return "pipeline." + stage + "_ms" }

// perLayer is the full traced-run metric list: one wall time per declared
// pipeline stage, then the layer metrics.
func perLayer() []metricDef {
	var out []metricDef
	for _, st := range cloudmap.StageNames() {
		out = append(out, metricDef{stageMetric(st), "ms"})
	}
	return append(out, layerMetrics...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects defs from the measured values; a def without a value is an
// error, so a run never prints a partial metric set.
func pick(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
