// Reading the exposition back: Parse turns the text format into families
// and samples, so the linter (promtest) and the nrtop dashboard read a
// scrape through one parser.
package prom

import (
	"fmt"
	"strconv"
	"strings"
)

// Sample is one sample line: the series name as written (a histogram's
// samples keep their _bucket, _sum or _count suffix), its labels in order,
// and its value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of the named label, "" when the sample has none.
func (s *Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Family is one parsed metric family: its HELP text as written, its TYPE,
// and its samples in the order they appear.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Parse reads a text exposition (v0.0.4) into its families, in the order
// their first HELP or TYPE line appears. It fails at the first line a
// scraper would trip over: a HELP without text, a malformed TYPE or one of
// an unknown type, a second HELP or TYPE for a family, a sample before its
// family's HELP and TYPE, or a malformed name, label or value. Comments and
// blank lines are skipped.
func Parse(text string) ([]*Family, error) {
	var fams []*Family
	index := make(map[string]*Family)
	family := func(name string) *Family {
		f := index[name]
		if f == nil {
			f = &Family{Name: name}
			index[name] = f
			fams = append(fams, f)
		}
		return f
	}
	for n, line := range strings.Split(text, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(line[len("# HELP "):], " ")
			f := family(name)
			switch {
			case help == "":
				return nil, fmt.Errorf("line %d: HELP without text", n+1)
			case f.Help != "":
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", n+1, name)
			}
			f.Help = help
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE", n+1)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown type %q", n+1, parts[1])
			}
			f := family(parts[0])
			if f.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", n+1, parts[0])
			}
			f.Type = parts[1]
		case line[0] == '#': // a comment
		default:
			s, err := parseSample(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", n+1, err)
			}
			name := s.Name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(s.Name, suffix); ok && index[base] != nil && index[base].Type == "histogram" {
					name = base
				}
			}
			f := index[name]
			if f == nil || f.Help == "" || f.Type == "" {
				return nil, fmt.Errorf("line %d: sample %s before HELP+TYPE of family %s", n+1, s.Name, name)
			}
			f.Samples = append(f.Samples, s)
		}
	}
	return fams, nil
}

// parseSample splits one sample line, name{label="value",...} value, as
// WriteTo renders it: label values are Go-quoted strings.
func parseSample(line string) (Sample, error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return Sample{}, fmt.Errorf("malformed sample %q", line)
	}
	s, rest := Sample{Name: line[:i]}, line[i:]
	if rest[0] == '{' {
		for rest = rest[1:]; !strings.HasPrefix(rest, "}"); {
			name, after, ok := strings.Cut(rest, "=")
			quoted, err := strconv.QuotedPrefix(after)
			if !ok || err != nil {
				return Sample{}, fmt.Errorf("malformed labels in %q", line)
			}
			value, _ := strconv.Unquote(quoted)
			s.Labels = append(s.Labels, Label{name, value})
			rest = strings.TrimPrefix(after[len(quoted):], ",")
		}
		rest = rest[1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return Sample{}, fmt.Errorf("malformed value in %q", line)
	}
	s.Value = v
	return s, nil
}
