// Package promtest holds Lint, a hand-rolled structural validator for the
// Prometheus exposition that internal/obs/prom writes. Not a full
// openmetrics parser — it checks exactly the invariants a scraper trips
// over: HELP/TYPE present before any sample of a family, no duplicate
// series, histogram buckets cumulative-monotone with a +Inf bucket equal
// to _count. Tests run it over the golden exposition and the live /metrics
// output, so a family added without HELP or a broken bucket ladder fails
// the build, not the first scrape. Only tests import this package.
package promtest

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Lint validates exposition text, returning the first violation found.
func Lint(text string) error {
	type familyInfo struct {
		hasHelp, hasType bool
		typ              string
	}
	families := make(map[string]*familyInfo)
	series := make(map[string]bool)
	// histogram bucket sequences keyed by series-without-le.
	type bucketSeq struct {
		les  []float64
		vals []float64
		inf  float64
		has  bool
	}
	buckets := make(map[string]*bucketSeq)
	counts := make(map[string]float64)

	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok {
				if f, exists := families[b]; exists && f.typ == "histogram" {
					return b
				}
			}
		}
		return name
	}

	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) < 2 || parts[1] == "" {
				return fmt.Errorf("line %d: HELP without text", lineNo)
			}
			f := families[parts[0]]
			if f == nil {
				f = &familyInfo{}
				families[parts[0]] = f
			}
			if f.hasHelp {
				return fmt.Errorf("line %d: duplicate HELP for %s", lineNo, parts[0])
			}
			f.hasHelp = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				return fmt.Errorf("line %d: malformed TYPE", lineNo)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown type %q", lineNo, parts[1])
			}
			f := families[parts[0]]
			if f == nil {
				f = &familyInfo{}
				families[parts[0]] = f
			}
			if f.hasType {
				return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, parts[0])
			}
			f.hasType = true
			f.typ = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}

		// Sample line: name{labels} value
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam := base(name)
		f := families[fam]
		if f == nil || !f.hasHelp || !f.hasType {
			return fmt.Errorf("line %d: sample %s before HELP+TYPE of family %s", lineNo, name, fam)
		}
		key := name + "{" + canonicalLabels(labels) + "}"
		if series[key] {
			return fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		series[key] = true

		if f.typ == "histogram" {
			nonLE := canonicalLabelsExcept(labels, "le")
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := labelValue(labels, "le")
				if !ok {
					return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
				}
				bk := fam + "{" + nonLE + "}"
				seq := buckets[bk]
				if seq == nil {
					seq = &bucketSeq{}
					buckets[bk] = seq
				}
				if le == "+Inf" {
					seq.inf = value
					seq.has = true
				} else {
					f64, perr := strconv.ParseFloat(le, 64)
					if perr != nil {
						return fmt.Errorf("line %d: bad le %q", lineNo, le)
					}
					seq.les = append(seq.les, f64)
					seq.vals = append(seq.vals, value)
				}
			case strings.HasSuffix(name, "_count"):
				counts[fam+"{"+nonLE+"}"] = value
			}
		}
	}

	// Cross-family checks: every family with samples has both lines (by
	// construction above), bucket ladders monotone with +Inf == _count.
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		seq := buckets[k]
		if !seq.has {
			return fmt.Errorf("histogram %s missing +Inf bucket", k)
		}
		for i := 1; i < len(seq.les); i++ {
			if seq.les[i] <= seq.les[i-1] {
				return fmt.Errorf("histogram %s: le boundaries not ascending (%g after %g)", k, seq.les[i], seq.les[i-1])
			}
			if seq.vals[i] < seq.vals[i-1] {
				return fmt.Errorf("histogram %s: bucket counts not cumulative (%g after %g at le=%g)", k, seq.vals[i], seq.vals[i-1], seq.les[i])
			}
		}
		if n := len(seq.vals); n > 0 && seq.inf < seq.vals[n-1] {
			return fmt.Errorf("histogram %s: +Inf bucket %g below last bucket %g", k, seq.inf, seq.vals[n-1])
		}
		if c, ok := counts[k]; ok && c != seq.inf {
			return fmt.Errorf("histogram %s: _count %g != +Inf bucket %g", k, c, seq.inf)
		}
	}
	return nil
}

// label is one parsed name="value" pair of a sample.
type label struct{ name, value string }

// parseSample splits one sample line into name, labels, value.
func parseSample(line string) (string, []label, float64, error) {
	rest := line
	var name string
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	} else {
		name = rest[:i]
		rest = rest[i:]
	}
	var labels []label
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated labels in %q", line)
		}
		body := rest[1:end]
		rest = rest[end+1:]
		for _, pair := range splitLabels(body) {
			eq := strings.Index(pair, "=")
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			val, err := strconv.Unquote(pair[eq+1:])
			if err != nil {
				return "", nil, 0, fmt.Errorf("malformed label value %q", pair)
			}
			labels = append(labels, label{name: pair[:eq], value: val})
		}
	}
	rest = strings.TrimSpace(rest)
	var value float64
	switch rest {
	case "+Inf":
		value = inf()
	case "-Inf":
		value = -inf()
	default:
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return "", nil, 0, fmt.Errorf("malformed value %q", rest)
		}
		value = v
	}
	return name, labels, value, nil
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(body string) []string {
	if body == "" {
		return nil
	}
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, body[start:])
	return out
}

func canonicalLabels(labels []label) string {
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		parts = append(parts, l.name+"="+l.value)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func canonicalLabelsExcept(labels []label, skip string) string {
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		if l.name == skip {
			continue
		}
		parts = append(parts, l.name+"="+l.value)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func labelValue(labels []label, name string) (string, bool) {
	for _, l := range labels {
		if l.name == name {
			return l.value, true
		}
	}
	return "", false
}

func inf() float64 { return math.Inf(1) }
