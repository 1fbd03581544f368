// Command tracedump issues a single traceroute in the simulated world and
// prints the annotated hop list — the scamper-plus-annotation view the
// paper's pipeline consumes. It is the debugging loupe for the forwarding
// plane: where a probe exits Amazon, which segment would be inferred as the
// interconnection, and how each hop resolves against the public datasets.
//
// It is also the tracefile inspector: -cat prints a campaign checkpoint one
// record per line, and -stat summarises a file's on-disk shape. The -cat
// layout is for reading and grepping; nothing parses it back:
//
//	T <cloud>/<region> <dst> <status> <hop>[,<hop>...]
//
// where each hop is either "*" (unresponsive) or "<addr>/<rtt-µs>".
//
// Usage:
//
//	tracedump -dst 64.0.0.1 [-cloud amazon] [-region 0] [-scale small] [-seed N] [-save trace.traces.bin]
//	tracedump -cat campaign.traces.bin | grep ' 64.0.0.1 '
//	tracedump -stat campaign.traces.bin
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"

	"cloudmap"
	"cloudmap/internal/netblock"
	"cloudmap/internal/probe"
	"cloudmap/internal/registry"
	"cloudmap/internal/tracefile"
)

func main() {
	scale := flag.String("scale", "small", "topology scale: small, medium, or paper")
	seed := flag.Uint64("seed", 1, "generation seed")
	cloud := flag.String("cloud", "amazon", "probing cloud")
	region := flag.Int("region", 0, "probing region index")
	dstFlag := flag.String("dst", "", "destination address (required)")
	save := flag.String("save", "", "write the trace to this tracefile, replacing any previous content")
	cat := flag.String("cat", "", "tracefile to print, one record per line")
	stat := flag.String("stat", "", "tracefile to summarise (records, chunks, bytes/trace, dictionary hit rate)")
	flag.Parse()

	if *stat != "" {
		if err := runStat(*stat); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *cat != "" {
		if err := runCat(*cat); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *dstFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	dst, err := netblock.ParseIP(*dstFlag)
	if err != nil {
		log.Fatal(err)
	}

	var cfg cloudmap.Config
	switch *scale {
	case "small":
		cfg = cloudmap.SmallConfig()
	case "medium":
		cfg = cloudmap.MediumConfig()
	case "paper":
		cfg = cloudmap.DefaultConfig()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	cfg.Topology.Seed = *seed

	sys, err := cloudmap.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := sys.Prober.Traceroute(probe.VMRef{Cloud: *cloud, Region: *region}, dst)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("traceroute from %s to %s (status %s)\n", tr.Src, tr.Dst, statusName(tr.Status))
	seenBorder := false
	for i, h := range tr.Hops {
		if !h.Responsive() {
			fmt.Printf("%3d  *\n", i+1)
			continue
		}
		ann := sys.Registry.Annotate(h.Addr)
		label := describe(sys.Registry, ann)
		marker := ""
		if !seenBorder && ann.ASN != 0 && !sys.Registry.IsAmazon(ann) {
			marker = "  <-- CBI (candidate interconnection segment above)"
			seenBorder = true
		}
		name := sys.Registry.DNS[h.Addr]
		if name != "" {
			name = "  " + name
		}
		fmt.Printf("%3d  %-15s %8.3f ms  %s%s%s\n", i+1, h.Addr, h.RTTms, label, name, marker)
	}
	if !seenBorder {
		fmt.Println("(the probe never left the cloud)")
	}

	if *save != "" {
		fw, err := tracefile.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		fw.Write(tr)
		if err := fw.Finish(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved to %s\n", *save)
	}
}

// runCat prints every record of a tracefile to stdout, then fails if the
// file turned out torn or foreign. A partial (interrupted) file prints
// whatever it holds.
func runCat(path string) error {
	out := bufio.NewWriter(os.Stdout)
	var b []byte
	_, rerr := tracefile.ReplayFile(path, func(tr probe.Trace) {
		b = appendRecord(b[:0], tr)
		out.Write(b) // a write error sticks and Flush reports it
	})
	if err := out.Flush(); err != nil {
		return err
	}
	if rerr != nil {
		return fmt.Errorf("cat %s: %w", path, rerr)
	}
	return nil
}

// appendRecord formats one trace as a -cat line.
func appendRecord(b []byte, tr probe.Trace) []byte {
	b = fmt.Appendf(b, "T %s/%d %s %d ", tr.Src.Cloud, tr.Src.Region, tr.Dst, tr.Status)
	for i, h := range tr.Hops {
		if i > 0 {
			b = append(b, ',')
		}
		if !h.Responsive() {
			b = append(b, '*')
			continue
		}
		b = append(b, h.Addr.String()...)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(math.Round(h.RTTms*1000)), 10)
	}
	return append(b, '\n')
}

// runStat prints a tracefile's on-disk shape.
func runStat(path string) error {
	st, err := tracefile.StatFile(path)
	if err != nil {
		return fmt.Errorf("stat %s: %w", path, err)
	}
	state := "complete"
	if !st.Complete {
		state = "partial"
	}
	fmt.Printf("%s: binary, %s\n", path, state)
	fmt.Printf("  records      %d\n", st.Records)
	fmt.Printf("  bytes        %d (%.2f bytes/trace)\n", st.Bytes, st.BytesPerTrace())
	fmt.Printf("  hops         %d (%d responsive)\n", st.Hops, st.ResponsiveHops)
	fmt.Printf("  chunks       %d\n", st.Chunks)
	fmt.Printf("  dictionary   %d entries, %.1f%% hit rate\n", st.DictEntries, 100*st.DictHitRate())
	return nil
}

func statusName(s probe.Status) string {
	switch s {
	case probe.StatusCompleted:
		return "completed"
	case probe.StatusGapLimit:
		return "gap-limit"
	case probe.StatusLoop:
		return "loop"
	}
	return "unknown"
}

func describe(reg *registry.Registry, ann registry.Annotation) string {
	switch {
	case ann.IXP >= 0 && ann.ASN != 0:
		return fmt.Sprintf("AS%-6d %-18s [IXP %s]", ann.ASN, ann.Org, reg.IXPs[ann.IXP].Name)
	case ann.IXP >= 0:
		return fmt.Sprintf("unknown member      [IXP %s]", reg.IXPs[ann.IXP].Name)
	case ann.ASN == 0:
		return "private/unknown"
	case ann.Source == registry.SourceWhois:
		return fmt.Sprintf("AS%-6d %-18s [whois-only]", ann.ASN, ann.Org)
	default:
		return fmt.Sprintf("AS%-6d %-18s", ann.ASN, ann.Org)
	}
}
