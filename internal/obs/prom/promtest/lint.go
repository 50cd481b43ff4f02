// Package promtest holds Lint, a structural validator for the Prometheus
// exposition that internal/obs/prom writes. It reads the text through
// prom.Parse, which already refuses a sample before its family's HELP and
// TYPE, and checks what a scraper trips over on top of that: no duplicate
// series, histogram buckets cumulative-monotone with a +Inf bucket equal
// to _count. Tests run it over the golden exposition and the live /metrics
// output, so a family added without HELP or a broken bucket ladder fails
// the build, not the first scrape. Only tests import this package.
package promtest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/asplos17/nr/internal/obs/prom"
)

// Lint validates exposition text, returning the first violation found.
func Lint(text string) error {
	fams, err := prom.Parse(text)
	if err != nil {
		return err
	}
	series := make(map[string]bool)
	for _, f := range fams {
		// One bucket ladder per histogram series, keyed by its labels
		// other than le, in the order the series first appears.
		type ladder struct {
			les, vals        []float64
			inf, count       float64
			hasInf, hasCount bool
		}
		ladders := make(map[string]*ladder)
		var keys []string
		for i := range f.Samples {
			s := &f.Samples[i]
			key := s.Name + "{" + canonicalLabels(s.Labels, "") + "}"
			if series[key] {
				return fmt.Errorf("duplicate series %s", key)
			}
			series[key] = true
			if f.Type != "histogram" {
				continue
			}
			k := f.Name + "{" + canonicalLabels(s.Labels, "le") + "}"
			l := ladders[k]
			if l == nil {
				l = &ladder{}
				ladders[k] = l
				keys = append(keys, k)
			}
			switch {
			case strings.HasSuffix(s.Name, "_bucket"):
				le := s.Label("le")
				if le == "+Inf" {
					l.inf, l.hasInf = s.Value, true
					continue
				}
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("histogram %s: bad or missing le %q", k, le)
				}
				l.les = append(l.les, bound)
				l.vals = append(l.vals, s.Value)
			case strings.HasSuffix(s.Name, "_count"):
				l.count, l.hasCount = s.Value, true
			}
		}
		for _, k := range keys {
			l := ladders[k]
			if !l.hasInf {
				return fmt.Errorf("histogram %s missing +Inf bucket", k)
			}
			for i := 1; i < len(l.les); i++ {
				if l.les[i] <= l.les[i-1] {
					return fmt.Errorf("histogram %s: le boundaries not ascending (%g after %g)", k, l.les[i], l.les[i-1])
				}
				if l.vals[i] < l.vals[i-1] {
					return fmt.Errorf("histogram %s: bucket counts not cumulative (%g after %g at le=%g)", k, l.vals[i], l.vals[i-1], l.les[i])
				}
			}
			if n := len(l.vals); n > 0 && l.inf < l.vals[n-1] {
				return fmt.Errorf("histogram %s: +Inf bucket %g below last bucket %g", k, l.inf, l.vals[n-1])
			}
			if l.hasCount && l.count != l.inf {
				return fmt.Errorf("histogram %s: _count %g != +Inf bucket %g", k, l.count, l.inf)
			}
		}
	}
	return nil
}

// canonicalLabels renders labels sorted by name, leaving out skip.
func canonicalLabels(labels []prom.Label, skip string) string {
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		if l.Name != skip {
			parts = append(parts, l.Name+"="+l.Value)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
