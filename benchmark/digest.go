package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"cloudmap"
	"cloudmap/internal/evaluate"
)

// digest fingerprints an op's output: the final CBI set with each CBI's
// owner AS, the metro pins, and the manifest summary. Two runs agree on the
// digest exactly when they agree on the inferred peering map and its
// headline numbers, whatever their worker count.
func digest(res *cloudmap.Result, summary map[string]float64) string {
	h := sha256.New()
	cbis := make([]cloudmap.IP, 0, len(res.Verified.CBIs))
	for ip := range res.Verified.CBIs {
		cbis = append(cbis, ip)
	}
	sort.Slice(cbis, func(i, j int) bool { return cbis[i] < cbis[j] })
	for _, ip := range cbis {
		fmt.Fprintf(h, "cbi %s %d\n", ip, res.Verified.OwnerASN[ip])
	}
	pins := make([]cloudmap.IP, 0, len(res.Pinning.Metro))
	for ip := range res.Pinning.Metro {
		pins = append(pins, ip)
	}
	sort.Slice(pins, func(i, j int) bool { return pins[i] < pins[j] })
	for _, ip := range pins {
		fmt.Fprintf(h, "pin %s %d\n", ip, res.Pinning.Metro[ip])
	}
	keys := make([]string, 0, len(summary))
	for k := range summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "summary %s %s\n", k, strconv.FormatFloat(summary[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// accuracy scores an op's result against ground truth. Every value is a
// share in [0, 1]; a share with an empty denominator reads 1, as
// evaluate's own precision and recall do.
func accuracy(res *cloudmap.Result) map[string]float64 {
	ev := evaluate.Evaluate(res.System.Topology, res.Border, res.Verified, res.VPI, res.Pinning)
	return map[string]float64{
		"cbi_precision":  share(ev.CBIOnBorderRouter, ev.CBIOnBorderRouter+ev.CBIDeep+ev.CBIWrong),
		"peer_as_recall": ev.PeerAS.Recall(),
		"owner_accuracy": share(ev.OwnerCorrect, ev.OwnerCorrect+ev.OwnerWrong),
		"vpi.recall":     ev.VPI.Recall(),
		"pin_accuracy":   share(ev.PinCorrect, ev.PinCorrect+ev.PinWrong),
		"pin_coverage":   share(len(res.Pinning.Metro), res.Pinning.TotalIfaces),
	}
}

func share(n, d int) float64 {
	if d == 0 {
		return 1
	}
	return float64(n) / float64(d)
}
