package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile reports the p-th percentile (0..100) of sorted by the
// nearest-rank rule; sorted must be ascending and non-empty.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median reports the middle of vals (mean of the two middles for an even
// count); 0 for none. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqr reports the distance between the first and third quartile of vals
// by the rule Python's statistics.quantiles(vals, n=4) uses (exclusive
// method: position i*(n+1)/4, linear interpolation), so a spread computed
// here matches the one the benchmark contract's driver computes. Fewer
// than two values have no spread.
func iqr(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return q(3) - q(1)
}

// parseMetrics reads the text rendering of an obs.Registry (one
// "kind name value..." line per instrument, as proxyd serves it on
// /metrics) into name → first numeric value. Histogram lines keep their
// count. Lines that do not parse are skipped: the dump is advisory text,
// and a gauge may print a non-number.
func parseMetrics(r io.Reader) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		val := strings.TrimPrefix(fields[2], "count=")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[fields[1]] = v
	}
	return out
}

// ratio is a/b, 0 when b is 0: a share of nothing is reported as none
// rather than NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
