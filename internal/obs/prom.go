package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The Prometheus text exposition format (version 0.0.4), shared by every
// /metrics endpoint in the repo: prof.Telemetry's suite scrape and the
// service registry's zenspec_service_* scrape. Callers own the family order
// and the series names; these functions own the syntax.

// promEscaper escapes a label value per the text format.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// PromLabel renders one label pair, key="value" with the value escaped.
// Several pairs join with commas into the labels argument of the writers
// below; "" means an unlabeled series.
func PromLabel(key, value string) string {
	return key + `="` + promEscaper.Replace(value) + `"`
}

// WritePromFamily starts a metric family: its HELP line when help is
// non-empty, then its TYPE line (counter, gauge, histogram or summary).
func WritePromFamily(w io.Writer, name, typ, help string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// WritePromUint writes one sample line with an integer value.
func WritePromUint(w io.Writer, name, labels string, v uint64) {
	fmt.Fprintf(w, "%s %d\n", PromSeries(name, labels), v)
}

// WritePromFloat writes one sample line with a float value in its shortest
// exact form.
func WritePromFloat(w io.Writer, name, labels string, v float64) {
	fmt.Fprintf(w, "%s %s\n", PromSeries(name, labels), promFloat(v))
}

// WritePromHistogram writes one histogram series: a cumulative _bucket line
// per upper bound in bounds, the +Inf bucket, then _sum and _count. buckets
// holds the per-bucket (not cumulative) counts, len(bounds)+1 of them with
// the overflow bucket last.
func WritePromHistogram(w io.Writer, name, labels string, bounds []float64, buckets []uint64, sum float64, count uint64) {
	var cum uint64
	for i, b := range bounds {
		cum += buckets[i]
		WritePromUint(w, name+"_bucket", promWithLE(labels, promFloat(b)), cum)
	}
	cum += buckets[len(bounds)]
	WritePromUint(w, name+"_bucket", promWithLE(labels, "+Inf"), cum)
	WritePromFloat(w, name+"_sum", labels, sum)
	WritePromUint(w, name+"_count", labels, count)
}

// WritePromSummary writes an unlabeled summary series with no quantiles:
// _count, then _sum.
func WritePromSummary(w io.Writer, name string, count, sum uint64) {
	WritePromUint(w, name+"_count", "", count)
	WritePromUint(w, name+"_sum", "", sum)
}

// PromSeries renders a series name: name{labels}, or the bare name when
// labels is "".
func PromSeries(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func promWithLE(labels, le string) string {
	if labels == "" {
		return `le="` + le + `"`
	}
	return labels + `,le="` + le + `"`
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
