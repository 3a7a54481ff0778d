package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
)

// The benchmark artifact is the machine-readable face of a Report: a
// schema'd JSON document holding the count and fingerprint of the
// events the experiment executed, its key metrics, a cluster-wide
// counter digest, the end-to-end latency percentiles and (for the
// profiler experiments) the attribution table and LogP fit. Artifacts
// are deterministic — the simulator is, every map is emitted in sorted
// key order, and floats are rounded to fixed precision — so a committed
// BENCH_<name>.json is a golden file: `bclbench -check` passes only
// when a fresh run reproduces it byte for byte, and otherwise names
// every leaf that moved (Diff). Two same-seed runs compared the same
// way are the determinism check (TestArtifactDeterminism).

// ArtifactSchema versions the JSON layout. Bump it when a field
// changes meaning; -check then names the schema line among the leaves
// that moved.
const ArtifactSchema = "bcl-bench/v2"

// LatencyDigest summarizes the merged end-to-end message latency
// histogram (nic/msg_latency_ns across all nodes).
type LatencyDigest struct {
	Count  uint64  `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us,omitempty"`
	MaxUs  float64 `json:"max_us"`
}

// AttributionRow is one (node, layer, phase) row of the virtual-time
// profile, in microseconds of exclusive time.
type AttributionRow struct {
	Node  int     `json:"node"`
	Layer string  `json:"layer"`
	Phase string  `json:"phase"`
	Us    float64 `json:"us"`
	Count int     `json:"count"`
}

// LogPDigest is the fitted LogGP model.
type LogPDigest struct {
	GapUs         float64 `json:"g_us"`
	GNsPerByte    float64 `json:"G_ns_per_byte"`
	BandwidthMBps float64 `json:"fit_bw_mbps"`
}

// Artifact is one experiment's benchmark record.
type Artifact struct {
	Schema  string `json:"schema"`
	ID      string `json:"id"`
	Title   string `json:"title"`
	Summary string `json:"summary"`

	// Events and EventFP are Report.Events and Report.EventFP: which
	// events the run executed, so a same-seed rerun that reorders even
	// one of them moves a leaf. ModelFP is Report.ModelFP: what the
	// model did, which a change that only reschedules events leaves
	// alone (see Classify). Fingerprints are 16 hex digits, since
	// a JSON number (float64) cannot hold 64 bits.
	Events  uint64 `json:"events"`
	EventFP string `json:"event_fp"`
	ModelFP string `json:"model_fp"`

	// Metrics are the experiment's key numbers (Report.Metrics).
	Metrics map[string]float64 `json:"metrics"`

	// Verdicts maps each of Report.Verdicts to what it reads: pass,
	// fail or unjudged.
	Verdicts map[string]string `json:"verdicts,omitempty"`

	// Counters digests the registry snapshot: cluster-wide sums keyed
	// "layer/name".
	Counters map[string]float64 `json:"counters,omitempty"`

	Latency     *LatencyDigest   `json:"latency,omitempty"`
	LogP        *LogPDigest      `json:"logp,omitempty"`
	Attribution []AttributionRow `json:"attribution,omitempty"`
}

// ArtifactFile returns the artifact filename for a Report.Artifact or
// Info.Gate name.
func ArtifactFile(name string) string { return "BENCH_" + name + ".json" }

// KnownRedFile, in the baseline directory, is the ledger of known
// failures: a line "<experiment> <seed> <verdict>" for every verdict a
// seeded experiment fails at a seed in SweepFirst..SweepLast, grouped
// under "# item N: …" comments naming the ROADMAP item that owns them.
// `bclbench -check` requires the sweep to fail exactly these lines.
const KnownRedFile = "KNOWN_RED.txt"

// The sweep's seeds; seed 1, the baselines', must fail nothing.
const SweepFirst, SweepLast = 2, 32

// round6 fixes float metrics at micro precision so artifacts are
// byte-stable, and squashes non-finite values (JSON has no NaN/Inf).
func round6(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}

// FromReport builds the artifact for one report. The digest comes
// from the report's own snapshot — the same one the prose and the
// one-line summary were rendered from, never a second run.
func FromReport(r *Report) *Artifact {
	a := &Artifact{
		Schema:  ArtifactSchema,
		ID:      r.ID,
		Title:   r.Title,
		Summary: r.Summary,
		Events:  r.Events,
		EventFP: fmt.Sprintf("%016x", r.EventFP),
		ModelFP: fmt.Sprintf("%016x", r.ModelFP),
		Metrics: make(map[string]float64, len(r.Metrics)),

		Verdicts: make(map[string]string, len(r.Verdicts)),
	}
	for k, v := range r.Metrics {
		a.Metrics[k] = round6(v)
	}
	for _, v := range r.Verdicts {
		a.Verdicts[v.Name] = r.Outcome(v.Name)
	}
	if r.Snap != nil {
		a.Counters = make(map[string]float64)
		for _, c := range r.Snap.Counters {
			a.Counters[c.Layer+"/"+c.Name] += float64(c.Value)
		}
		if h := r.Snap.MergedHist("nic", "msg_latency_ns"); h.Count > 0 {
			a.Latency = &LatencyDigest{
				Count:  h.Count,
				P50Us:  round6(float64(h.P50()) / 1000),
				P90Us:  round6(float64(h.P90()) / 1000),
				P99Us:  round6(float64(h.P99()) / 1000),
				P999Us: round6(float64(h.P999()) / 1000),
				MaxUs:  round6(float64(h.Max) / 1000),
			}
		}
	}
	if r.LogP != nil {
		a.LogP = &LogPDigest{
			GapUs:         round6(us(r.LogP.SmallG)),
			GNsPerByte:    round6(r.LogP.G),
			BandwidthMBps: round6(r.LogP.BandwidthMBps),
		}
	}
	if r.Attribution != nil {
		for _, row := range r.Attribution.Rows {
			a.Attribution = append(a.Attribution, AttributionRow{
				Node: row.Node, Layer: row.Layer, Phase: row.Phase,
				Us: round6(us(row.Time)), Count: row.Count,
			})
		}
	}
	return a
}

// Encode renders the artifact as stable JSON: encoding/json emits map
// keys sorted and struct fields in declaration order, so identical
// runs produce identical bytes.
func (a *Artifact) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Diff compares a fresh artifact's bytes with its committed baseline's.
// It returns nil exactly when they are equal. Otherwise it returns one
// line per JSON leaf that differs, in path order, as
// "path: baseline -> fresh" (metrics.half_rtt_us, counters.nic/sent,
// attribution[3].us, schema); a key on one side only reads "(absent)"
// on the other. A side that does not decode gives one line naming the
// error, and bytes that differ in no value (whitespace, key order,
// trailing data) give one line saying so.
func Diff(fresh, base []byte) []string {
	if bytes.Equal(fresh, base) {
		return nil
	}
	var docs [2]any
	for i, side := range [][]byte{base, fresh} {
		d := json.NewDecoder(bytes.NewReader(side))
		d.UseNumber() // compare numbers as the literals the file holds
		if err := d.Decode(&docs[i]); err != nil {
			return []string{fmt.Sprintf("%s: cannot decode: %v", [2]string{"baseline", "fresh"}[i], err)}
		}
	}
	var out []string
	diffWalk("", docs[0], docs[1], &out)
	if out == nil {
		out = []string{"layout: every value is equal but the bytes differ (whitespace, key order or trailing data)"}
	}
	return out
}

// The two labels Classify gives a failing gate.
const (
	modelUntouched = "model untouched (only events, event_fp moved)"
	modelMoved     = "model moved"
)

// Classify labels a failing gate by its lines (Diff's, plus -check's
// "verdict <name>: fail"): modelUntouched when every line names the
// events or event_fp leaf, so the run did what the baseline says and
// only the scheduling of its events changed; modelMoved otherwise,
// model_fp, a metric, a counter or a verdict included.
func Classify(moved []string) string {
	for _, m := range moved {
		if !strings.HasPrefix(m, "events: ") && !strings.HasPrefix(m, "event_fp: ") {
			return modelMoved
		}
	}
	return modelUntouched
}

// absent stands for a key or index that one side of a Diff lacks.
var absent any = struct{}{}

// diffWalk appends a line for every leaf under path where base and
// fresh differ. It descends into a non-empty object or array whose
// other side has the same kind or is absent; anything else compares as
// a leaf.
func diffWalk(path string, base, fresh any, out *[]string) {
	bm, bObj := base.(map[string]any)
	fm, fObj := fresh.(map[string]any)
	if (bObj || base == absent) && (fObj || fresh == absent) && len(bm)+len(fm) > 0 {
		keys := slices.Concat(slices.Collect(maps.Keys(bm)), slices.Collect(maps.Keys(fm)))
		slices.Sort(keys)
		for _, k := range slices.Compact(keys) {
			diffWalk(strings.TrimPrefix(path+"."+k, "."), member(bm, k), member(fm, k), out)
		}
		return
	}
	ba, bArr := base.([]any)
	fa, fArr := fresh.([]any)
	if (bArr || base == absent) && (fArr || fresh == absent) && len(ba)+len(fa) > 0 {
		for i := range max(len(ba), len(fa)) {
			diffWalk(fmt.Sprintf("%s[%d]", path, i), element(ba, i), element(fa, i), out)
		}
		return
	}
	if b, f := literal(base), literal(fresh); b != f {
		*out = append(*out, path+": "+b+" -> "+f)
	}
}

func member(m map[string]any, k string) any {
	if v, ok := m[k]; ok {
		return v
	}
	return absent
}

func element(a []any, i int) any {
	if i < len(a) {
		return a[i]
	}
	return absent
}

// literal renders a leaf as JSON (numbers as the file wrote them).
func literal(v any) string {
	if v == absent {
		return "(absent)"
	}
	b, _ := json.Marshal(v) // a decoded JSON value always encodes
	return string(b)
}
