package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	Key    string // the series as printed: name{label="v",...}
	Name   string
	Labels map[string]string
	Value  float64
}

// scrape is one parsed /metrics body, indexed by the series as printed
// (`name{label="v",...}`), which is unique within an exposition.
type scrape struct {
	samples []promSample
	byKey   map[string]float64
}

// parseProm reads the text exposition format rsgend emits: `# TYPE` comments,
// bare series and labelled series, with histogram `_bucket`/`_sum`/`_count`
// and summary `_sum`/`_count` as ordinary series.
func parseProm(r io.Reader) (*scrape, error) {
	s := &scrape{byKey: make(map[string]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", ln, line)
		}
		key, raw := strings.TrimSpace(line[:cut]), line[cut+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: value %q: %v", ln, raw, err)
		}
		name, labels, err := splitSeries(key)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", ln, err)
		}
		s.samples = append(s.samples, promSample{Key: key, Name: name, Labels: labels, Value: v})
		s.byKey[key] = v
	}
	return s, sc.Err()
}

// splitSeries parses `name{k="v",k2="v2"}` honouring \" \\ \n escapes.
func splitSeries(key string) (string, map[string]string, error) {
	open := strings.IndexByte(key, '{')
	if open < 0 {
		return key, nil, nil
	}
	if !strings.HasSuffix(key, "}") {
		return "", nil, fmt.Errorf("unterminated label set in %q", key)
	}
	name, body := key[:open], key[open+1:len(key)-1]
	labels := make(map[string]string)
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return "", nil, fmt.Errorf("malformed label in %q", key)
		}
		k := body[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(body) && body[i] != '"'; i++ {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(body[i])
				}
				continue
			}
			val.WriteByte(body[i])
		}
		if i >= len(body) {
			return "", nil, fmt.Errorf("unterminated label value in %q", key)
		}
		labels[k] = val.String()
		body = strings.TrimPrefix(body[i+1:], ",")
	}
	return name, labels, nil
}

// get returns the series printed exactly as key, 0 when absent.
func (s *scrape) get(key string) float64 { return s.byKey[key] }

// sum adds every series of the family whose labels satisfy keep.
func (s *scrape) sum(name string, keep func(labels map[string]string) bool) float64 {
	t := 0.0
	for _, p := range s.samples {
		if p.Name == name && (keep == nil || keep(p.Labels)) {
			t += p.Value
		}
	}
	return t
}

// deltaScrape subtracts before from after, series by series. A series that
// went down is a counter that restarted from zero with its process, so its
// delta is the new value; a series absent before counts from zero.
func deltaScrape(before, after *scrape) *scrape {
	d := &scrape{byKey: make(map[string]float64, len(after.byKey))}
	for _, p := range after.samples {
		if b, ok := before.byKey[p.Key]; ok && b <= p.Value {
			p.Value -= b
		}
		d.samples = append(d.samples, p)
		d.byKey[p.Key] = p.Value
	}
	return d
}
