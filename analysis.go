package cloudmap

import (
	"cloudmap/internal/geo"
	"cloudmap/internal/grouping"
	"cloudmap/internal/icg"
	"cloudmap/internal/netblock"
	"cloudmap/internal/registry"
	"cloudmap/internal/vpi"
)

// IP is the IPv4 address type used throughout results (dotted-quad String,
// ParseIP in internal/netblock).
type IP = netblock.IP

// MetroID identifies a metro area of the simulated world.
type MetroID = geo.MetroID

// netblockIP is kept as an internal alias.
type netblockIP = netblock.IP

// VPIResult is the §7.1 multi-cloud overlap detection output (Table 4).
type VPIResult = vpi.Result

// GroupingResult is the §7.2-7.3 classification output (Tables 5, 6;
// Fig. 6; hidden share; BGP coverage).
type GroupingResult = grouping.Result

// ICGResult is the §7.4 interface connectivity graph analysis (Fig. 7).
type ICGResult = icg.Result

// ComboCount is one Table 6 row: a hybrid-peering combination and its AS
// count.
type ComboCount = grouping.ComboCount

// classifyPeerings runs §7.2-7.3 over the given dataset view.
func classifyPeerings(reg *registry.Registry, res *Result) *GroupingResult {
	return grouping.Classify(res.Verified, res.Border, reg, res.VPI, res.Pinning)
}

// buildICG runs §7.4.
func buildICG(res *Result) *ICGResult {
	return icg.Build(res.Verified, res.Pinning, res.System.Registry.World)
}
