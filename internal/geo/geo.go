// Package geo models the physical geography underlying the simulated
// Internet: metropolitan areas (identified by IATA-style airport codes),
// great-circle distances between them, and the propagation-delay component of
// round-trip times.
//
// The paper pins border interfaces to metro areas and relies on RTT-based
// reasoning in several places: the 2 ms "native colo" knee (Fig. 4a), the
// 2 ms co-presence threshold for interconnection segments (Fig. 4b), the
// min-RTT ratio used for region-level pinning (Fig. 5), and the DRoP-style
// RTT sanity check on DNS-derived locations. All of those require a
// physically plausible delay model, which this package provides.
package geo

import (
	"fmt"
	"math"
	"sort"
)

// MetroID identifies a metropolitan area. IDs are dense indexes into the
// World's metro table.
type MetroID int

// None marks the absence of a metro (e.g. an unpinned interface).
const None MetroID = -1

// Metro is a metropolitan area that can host colocation facilities.
type Metro struct {
	ID      MetroID
	Code    string // IATA-style airport code, lower case (e.g. "iad")
	City    string // human-readable city name (e.g. "Ashburn")
	Country string // ISO-like country code (e.g. "US")
	Lat     float64
	Lon     float64
}

// Region is a cloud-provider region (a cluster of datacenters anchored at a
// metro). The paper probes from 15 Amazon regions; other clouds have their
// own region sets.
type Region struct {
	Name  string // provider-style name, e.g. "us-east-1"
	Metro MetroID
}

// World holds the metro table shared by every simulated entity.
type World struct {
	Metros []Metro

	byCode map[string]MetroID
	byCity map[string]MetroID

	// distKm and rttMs are row-major len(Metros)×len(Metros) tables of
	// great-circle distances and propagation RTTs, computed once by
	// NewWorld: every traceroute consults them several times, and the
	// trigonometry behind them would otherwise dominate path synthesis.
	distKm []float64
	rttMs  []float64
}

// metroSeed is one row of the built-in world model.
type metroSeed struct {
	code, city, country string
	lat, lon            float64
}

// The built-in world: a superset of the metros in which Amazon was present in
// 2018 (per the paper: 74 metro areas served; we model the most significant
// ones on every continent) plus additional metros that host IXPs, carrier
// hotels, or remote-peering customers. Coordinates are approximate city
// centers; only relative distance matters for the RTT model.
var builtinMetros = []metroSeed{
	// North America
	{"iad", "Ashburn", "US", 39.04, -77.49},
	{"cmh", "Columbus", "US", 39.96, -83.00},
	{"pdx", "Portland", "US", 45.52, -122.68},
	{"sfo", "San Francisco", "US", 37.77, -122.42},
	{"sjc", "San Jose", "US", 37.34, -121.89},
	{"lax", "Los Angeles", "US", 34.05, -118.24},
	{"sea", "Seattle", "US", 47.61, -122.33},
	{"dfw", "Dallas", "US", 32.78, -96.80},
	{"ord", "Chicago", "US", 41.88, -87.63},
	{"nyc", "New York", "US", 40.71, -74.01},
	{"ewr", "Newark", "US", 40.74, -74.17},
	{"atl", "Atlanta", "US", 33.75, -84.39},
	{"mia", "Miami", "US", 25.76, -80.19},
	{"den", "Denver", "US", 39.74, -104.99},
	{"phx", "Phoenix", "US", 33.45, -112.07},
	{"slc", "Salt Lake City", "US", 40.76, -111.89},
	{"mci", "Kansas City", "US", 39.10, -94.58},
	{"bos", "Boston", "US", 42.36, -71.06},
	{"yyz", "Toronto", "CA", 43.65, -79.38},
	{"yul", "Montreal", "CA", 45.50, -73.57},
	{"yvr", "Vancouver", "CA", 49.28, -123.12},
	{"mex", "Mexico City", "MX", 19.43, -99.13},
	// South America
	{"gru", "Sao Paulo", "BR", -23.55, -46.63},
	{"gig", "Rio de Janeiro", "BR", -22.91, -43.17},
	{"eze", "Buenos Aires", "AR", -34.60, -58.38},
	{"scl", "Santiago", "CL", -33.45, -70.67},
	{"bog", "Bogota", "CO", 4.71, -74.07},
	// Europe
	{"dub", "Dublin", "IE", 53.35, -6.26},
	{"lhr", "London", "GB", 51.51, -0.13},
	{"man", "Manchester", "GB", 53.48, -2.24},
	{"fra", "Frankfurt", "DE", 50.11, 8.68},
	{"muc", "Munich", "DE", 48.14, 11.58},
	{"ber", "Berlin", "DE", 52.52, 13.41},
	{"ams", "Amsterdam", "NL", 52.37, 4.90},
	{"cdg", "Paris", "FR", 48.86, 2.35},
	{"mrs", "Marseille", "FR", 43.30, 5.37},
	{"mad", "Madrid", "ES", 40.42, -3.70},
	{"mil", "Milan", "IT", 45.46, 9.19},
	{"zrh", "Zurich", "CH", 47.38, 8.54},
	{"vie", "Vienna", "AT", 48.21, 16.37},
	{"waw", "Warsaw", "PL", 52.23, 21.01},
	{"prg", "Prague", "CZ", 50.08, 14.44},
	{"sto", "Stockholm", "SE", 59.33, 18.07},
	{"cph", "Copenhagen", "DK", 55.68, 12.57},
	{"osl", "Oslo", "NO", 59.91, 10.75},
	{"hel", "Helsinki", "FI", 60.17, 24.94},
	{"bru", "Brussels", "BE", 50.85, 4.35},
	{"lis", "Lisbon", "PT", 38.72, -9.14},
	{"ath", "Athens", "GR", 37.98, 23.73},
	{"ist", "Istanbul", "TR", 41.01, 28.98},
	{"mow", "Moscow", "RU", 55.76, 37.62},
	// Middle East / Africa
	{"dxb", "Dubai", "AE", 25.20, 55.27},
	{"bah", "Manama", "BH", 26.23, 50.59},
	{"tlv", "Tel Aviv", "IL", 32.09, 34.78},
	{"jnb", "Johannesburg", "ZA", -26.20, 28.05},
	{"cpt", "Cape Town", "ZA", -33.92, 18.42},
	{"nbo", "Nairobi", "KE", -1.29, 36.82},
	{"los", "Lagos", "NG", 6.52, 3.38},
	// Asia / Pacific
	{"bom", "Mumbai", "IN", 19.08, 72.88},
	{"blr", "Bangalore", "IN", 12.97, 77.59},
	{"del", "Delhi", "IN", 28.61, 77.21},
	{"maa", "Chennai", "IN", 13.08, 80.27},
	{"sin", "Singapore", "SG", 1.35, 103.82},
	{"kul", "Kuala Lumpur", "MY", 3.14, 101.69},
	{"bkk", "Bangkok", "TH", 13.76, 100.50},
	{"cgk", "Jakarta", "ID", -6.21, 106.85},
	{"hkg", "Hong Kong", "HK", 22.32, 114.17},
	{"tpe", "Taipei", "TW", 25.03, 121.57},
	{"nrt", "Tokyo", "JP", 35.68, 139.65},
	{"kix", "Osaka", "JP", 34.69, 135.50},
	{"icn", "Seoul", "KR", 37.57, 126.98},
	{"pek", "Beijing", "CN", 39.90, 116.41},
	{"sha", "Shanghai", "CN", 31.23, 121.47},
	{"syd", "Sydney", "AU", -33.87, 151.21},
	{"mel", "Melbourne", "AU", -37.81, 144.96},
	{"per", "Perth", "AU", -31.95, 115.86},
	{"akl", "Auckland", "NZ", -36.85, 174.76},
	// Additional North American metros.
	{"iah", "Houston", "US", 29.76, -95.37},
	{"msp", "Minneapolis", "US", 44.98, -93.27},
	{"dtw", "Detroit", "US", 42.33, -83.05},
	{"clt", "Charlotte", "US", 35.23, -80.84},
	{"bna", "Nashville", "US", 36.16, -86.78},
	{"pit", "Pittsburgh", "US", 40.44, -79.99},
	{"stl", "St Louis", "US", 38.63, -90.20},
	{"sdg", "San Diego", "US", 32.72, -117.16},
	{"las", "Las Vegas", "US", 36.17, -115.14},
	{"rdu", "Raleigh", "US", 35.78, -78.64},
	{"cle", "Cleveland", "US", 41.50, -81.69},
	{"cvg", "Cincinnati", "US", 39.10, -84.51},
	{"ind", "Indianapolis", "US", 39.77, -86.16},
	{"aus", "Austin", "US", 30.27, -97.74},
	{"sat", "San Antonio", "US", 29.42, -98.49},
	{"tpa", "Tampa", "US", 27.95, -82.46},
	{"mco", "Orlando", "US", 28.54, -81.38},
	{"mem", "Memphis", "US", 35.15, -90.05},
	{"jax", "Jacksonville", "US", 30.33, -81.66},
	{"okc", "Oklahoma City", "US", 35.47, -97.52},
	{"yyc", "Calgary", "CA", 51.05, -114.07},
	{"yow", "Ottawa", "CA", 45.42, -75.70},
	{"yeg", "Edmonton", "CA", 53.55, -113.49},
	{"ywg", "Winnipeg", "CA", 49.90, -97.14},
	{"yhz", "Halifax", "CA", 44.65, -63.58},
	{"gdl", "Guadalajara", "MX", 20.66, -103.35},
	{"mty", "Monterrey", "MX", 25.69, -100.32},
	// Additional European metros.
	{"dus", "Dusseldorf", "DE", 51.23, 6.77},
	{"ham", "Hamburg", "DE", 53.55, 9.99},
	{"fco", "Rome", "IT", 41.90, 12.50},
	{"bcn", "Barcelona", "ES", 41.39, 2.17},
	{"gva", "Geneva", "CH", 46.20, 6.14},
	{"lys", "Lyon", "FR", 45.76, 4.84},
	{"edi", "Edinburgh", "GB", 55.95, -3.19},
	{"bhx", "Birmingham", "GB", 52.49, -1.89},
	{"bud", "Budapest", "HU", 47.50, 19.04},
	{"otp", "Bucharest", "RO", 44.43, 26.10},
	{"sof", "Sofia", "BG", 42.70, 23.32},
	{"kbp", "Kyiv", "UA", 50.45, 30.52},
	{"led", "St Petersburg", "RU", 59.93, 30.34},
	// Additional Middle East / Africa metros.
	{"cai", "Cairo", "EG", 30.04, 31.24},
	{"cmn", "Casablanca", "MA", 33.57, -7.59},
	{"acc", "Accra", "GH", 5.60, -0.19},
	{"jed", "Jeddah", "SA", 21.49, 39.19},
	{"ruh", "Riyadh", "SA", 24.71, 46.68},
	{"amm", "Amman", "JO", 31.96, 35.95},
	{"doh", "Doha", "QA", 25.29, 51.53},
	{"kwi", "Kuwait City", "KW", 29.38, 47.99},
	{"mba", "Mombasa", "KE", -4.04, 39.67},
	// Additional Asian / Pacific metros.
	{"szx", "Shenzhen", "CN", 22.54, 114.06},
	{"ctu", "Chengdu", "CN", 30.57, 104.07},
	{"hyd", "Hyderabad", "IN", 17.39, 78.49},
	{"ccu", "Kolkata", "IN", 22.57, 88.36},
	{"sgn", "Ho Chi Minh City", "VN", 10.82, 106.63},
	{"hann", "Hanoi", "VN", 21.03, 105.85},
	{"mnl", "Manila", "PH", 14.60, 120.98},
	{"fuk", "Fukuoka", "JP", 33.59, 130.40},
	{"bne", "Brisbane", "AU", -27.47, 153.03},
	{"adl", "Adelaide", "AU", -34.93, 138.60},
	{"wlg", "Wellington", "NZ", -41.29, 174.78},
	// Additional Latin American metros.
	{"lim", "Lima", "PE", -12.05, -77.04},
	{"uio", "Quito", "EC", -0.18, -78.47},
	{"ccs", "Caracas", "VE", 10.48, -66.90},
	{"mvd", "Montevideo", "UY", -34.90, -56.16},
	{"pty", "Panama City", "PA", 8.98, -79.52},
	{"poa", "Porto Alegre", "BR", -30.03, -51.22},
	{"for", "Fortaleza", "BR", -3.73, -38.52},
}

// NewWorld constructs the built-in world model.
func NewWorld() *World {
	w := &World{
		Metros: make([]Metro, len(builtinMetros)),
		byCode: make(map[string]MetroID, len(builtinMetros)),
		byCity: make(map[string]MetroID, len(builtinMetros)),
	}
	for i, s := range builtinMetros {
		id := MetroID(i)
		w.Metros[i] = Metro{ID: id, Code: s.code, City: s.city, Country: s.country, Lat: s.lat, Lon: s.lon}
		w.byCode[s.code] = id
		w.byCity[normalizeCity(s.city)] = id
	}
	n := len(w.Metros)
	w.distKm = make([]float64, n*n)
	w.rttMs = make([]float64, n*n)
	for a := range w.Metros {
		for b := range w.Metros {
			if a == b {
				continue
			}
			ma, mb := &w.Metros[a], &w.Metros[b]
			d := haversineKm(ma.Lat, ma.Lon, mb.Lat, mb.Lon)
			w.distKm[a*n+b] = d
			w.rttMs[a*n+b] = rttOverGreatCircle(d)
		}
	}
	return w
}

func normalizeCity(city string) string {
	out := make([]byte, 0, len(city))
	for i := 0; i < len(city); i++ {
		c := city[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c == ' ' || c == '-' || c == '.' {
			continue
		}
		out = append(out, c)
	}
	return string(out)
}

// Metro returns the metro with the given ID. It panics on an invalid ID so
// that bookkeeping errors in the simulator fail loudly.
func (w *World) Metro(id MetroID) Metro {
	if id < 0 || int(id) >= len(w.Metros) {
		panic(fmt.Sprintf("geo: invalid metro id %d", id))
	}
	return w.Metros[id]
}

// ByCode looks a metro up by its airport code (lower case). The boolean is
// false if the code is unknown.
func (w *World) ByCode(code string) (MetroID, bool) {
	id, ok := w.byCode[code]
	return id, ok
}

// ByCity looks a metro up by city name, ignoring case, spaces, dots, and
// hyphens (DNS names embed city names in many spellings).
func (w *World) ByCity(city string) (MetroID, bool) {
	id, ok := w.byCity[normalizeCity(city)]
	return id, ok
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// pair returns the index of (a, b) in the metro-pair tables. Like Metro, it
// panics on an invalid ID.
func (w *World) pair(a, b MetroID) int {
	n := len(w.Metros)
	if uint(a) >= uint(n) || uint(b) >= uint(n) {
		panic(fmt.Sprintf("geo: invalid metro pair (%d, %d)", a, b))
	}
	return int(a)*n + int(b)
}

// DistanceKm returns the great-circle distance between two metros.
func (w *World) DistanceKm(a, b MetroID) float64 {
	return w.distKm[w.pair(a, b)]
}

func haversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	const deg = math.Pi / 180
	phi1, phi2 := lat1*deg, lat2*deg
	dphi := (lat2 - lat1) * deg
	dlmb := (lon2 - lon1) * deg
	s1 := math.Sin(dphi / 2)
	s2 := math.Sin(dlmb / 2)
	h := s1*s1 + math.Cos(phi1)*math.Cos(phi2)*s2*s2
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Propagation model: light in fiber travels at roughly 2/3 c, and real paths
// are longer than great circles (routing inflation). A commonly used rule of
// thumb is ~1 ms of RTT per 100 km of fiber path with ~1.5x path inflation,
// which the constants below encode.
const (
	fiberKmPerMsOneWay = 200.0 // ~2/3 c in km per millisecond, one way
	pathInflation      = 1.5   // fiber route length vs great circle
)

// PropagationRTTms returns the round-trip propagation delay in milliseconds
// between two metros (no queueing; callers add per-hop processing delays).
func (w *World) PropagationRTTms(a, b MetroID) float64 {
	return w.rttMs[w.pair(a, b)]
}

// rttOverGreatCircle converts a great-circle distance to the propagation
// RTT between its endpoints.
func rttOverGreatCircle(km float64) float64 {
	km *= pathInflation
	return 2 * km / fiberKmPerMsOneWay
}

// RTTOverKm converts a one-way fiber distance in km to a round-trip time in
// milliseconds using the same model, for callers that track distances
// directly (e.g. remote-peering layer-2 circuits).
func RTTOverKm(km float64) float64 {
	return 2 * km * pathInflation / fiberKmPerMsOneWay
}

// ClosestMetro returns the metro among candidates closest to target.
// It panics on an empty candidate list.
func (w *World) ClosestMetro(target MetroID, candidates []MetroID) MetroID {
	if len(candidates) == 0 {
		panic("geo: ClosestMetro with no candidates")
	}
	best := candidates[0]
	bestD := w.DistanceKm(target, best)
	for _, c := range candidates[1:] {
		if d := w.DistanceKm(target, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// SortByDistance sorts the candidate metros in place by increasing distance
// from target (ties broken by ID for determinism).
func (w *World) SortByDistance(target MetroID, candidates []MetroID) {
	sort.Slice(candidates, func(i, j int) bool {
		di := w.DistanceKm(target, candidates[i])
		dj := w.DistanceKm(target, candidates[j])
		if di != dj {
			return di < dj
		}
		return candidates[i] < candidates[j]
	})
}

// AmazonRegions returns the 15 public Amazon regions the paper probes from,
// anchored to metros of the built-in world. (The paper excludes the two
// China regions and GovCloud; so do we.)
func AmazonRegions(w *World) []Region {
	names := []struct{ name, code string }{
		{"us-east-1", "iad"},
		{"us-east-2", "cmh"},
		{"us-west-1", "sfo"},
		{"us-west-2", "pdx"},
		{"ca-central-1", "yul"},
		{"sa-east-1", "gru"},
		{"eu-west-1", "dub"},
		{"eu-west-2", "lhr"},
		{"eu-west-3", "cdg"},
		{"eu-central-1", "fra"},
		{"eu-north-1", "sto"},
		{"ap-south-1", "bom"},
		{"ap-southeast-1", "sin"},
		{"ap-southeast-2", "syd"},
		{"ap-northeast-1", "nrt"},
	}
	regions := make([]Region, len(names))
	for i, n := range names {
		id, ok := w.ByCode(n.code)
		if !ok {
			panic("geo: unknown metro code " + n.code)
		}
		regions[i] = Region{Name: n.name, Metro: id}
	}
	return regions
}

// CloudRegions returns region sets for the four non-Amazon clouds used in
// the paper's VPI detection (§7.1).
func CloudRegions(w *World, provider string) []Region {
	var names []struct{ name, code string }
	switch provider {
	case "microsoft":
		names = []struct{ name, code string }{
			{"east-us", "iad"}, {"west-us", "sjc"}, {"north-europe", "dub"},
			{"west-europe", "ams"}, {"southeast-asia", "sin"}, {"japan-east", "nrt"},
			{"australia-east", "syd"}, {"brazil-south", "gru"},
		}
	case "google":
		names = []struct{ name, code string }{
			{"us-east4", "iad"}, {"us-west1", "pdx"}, {"europe-west1", "bru"},
			{"europe-west3", "fra"}, {"asia-southeast1", "sin"}, {"asia-northeast1", "nrt"},
		}
	case "ibm":
		names = []struct{ name, code string }{
			{"us-east", "iad"}, {"us-south", "dfw"}, {"eu-de", "fra"}, {"jp-tok", "nrt"},
		}
	case "oracle":
		names = []struct{ name, code string }{
			{"us-ashburn-1", "iad"}, {"us-phoenix-1", "phx"}, {"eu-frankfurt-1", "fra"},
		}
	default:
		panic("geo: unknown cloud provider " + provider)
	}
	regions := make([]Region, len(names))
	for i, n := range names {
		id, ok := w.ByCode(n.code)
		if !ok {
			panic("geo: unknown metro code " + n.code)
		}
		regions[i] = Region{Name: n.name, Metro: id}
	}
	return regions
}
