package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Scrape is a parsed Prometheus text-format exposition: sample name (with
// its label set, exactly as rendered) → value. It exists so tests — the
// chaos harness in particular — can assert on what an external scraper
// would actually see, not on in-process state.
type Scrape map[string]float64

// Value returns the sample for key ("name" or `name{label="v"}`), or 0.
func (s Scrape) Value(key string) float64 { return s[key] }

// Exemplar is a trace-linked observation attached to a histogram bucket in
// OpenMetrics `# {trace_id="..."} value` syntax.
type Exemplar struct {
	TraceID string
	Value   float64
}

// ParseText parses Prometheus text exposition format. It understands the
// subset this package emits (and that real scrapers rely on): comment/HELP/
// TYPE lines are skipped, samples are `name[{labels}] value`, and an
// OpenMetrics exemplar suffix (`# {trace_id="..."} value`) on a sample line
// is tolerated and ignored.
func ParseText(r io.Reader) (Scrape, error) {
	out, _, err := parseText(r)
	return out, err
}

// ParseTextWithExemplars is ParseText plus the exemplars: the second return
// maps sample keys (as in Scrape) to the exemplar rendered on that line.
// Samples without an exemplar have no entry.
func ParseTextWithExemplars(r io.Reader) (Scrape, map[string]Exemplar, error) {
	return parseText(r)
}

func parseText(r io.Reader) (Scrape, map[string]Exemplar, error) {
	out := Scrape{}
	exemplars := map[string]Exemplar{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample, ex, hasEx := splitExemplar(line)
		// The value is the last space-separated field; the name (with any
		// label braces, which may themselves contain spaces inside quotes)
		// is everything before it.
		idx := strings.LastIndexByte(sample, ' ')
		if idx <= 0 {
			return nil, nil, fmt.Errorf("obs: unparseable sample line %q", line)
		}
		name := strings.TrimSpace(sample[:idx])
		v, err := strconv.ParseFloat(sample[idx+1:], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("obs: bad value in %q: %w", line, err)
		}
		if _, dup := out[name]; dup {
			return nil, nil, fmt.Errorf("obs: duplicate sample %q", name)
		}
		out[name] = v
		if hasEx {
			exemplars[name] = ex
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return out, exemplars, nil
}

// splitExemplar strips a trailing OpenMetrics exemplar from a sample line.
// The tail grammar is exactly what writePromSeries emits — ` # {trace_id="
// <id>"} <float>` at end of line. A line whose tail does not match is
// returned unchanged (the whole line then parses — or fails — as a plain
// sample, so malformed input degrades to a normal parse error rather than a
// silently truncated sample).
func splitExemplar(line string) (sample string, ex Exemplar, ok bool) {
	j := strings.LastIndex(line, " # {")
	if j < 0 {
		return line, Exemplar{}, false
	}
	tail := line[j+len(" # {"):]
	const pfx = `trace_id="`
	if !strings.HasPrefix(tail, pfx) {
		return line, Exemplar{}, false
	}
	rest := tail[len(pfx):]
	q := strings.IndexByte(rest, '"')
	if q < 0 {
		return line, Exemplar{}, false
	}
	id := rest[:q]
	rest = rest[q+1:]
	if !strings.HasPrefix(rest, "} ") {
		return line, Exemplar{}, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest[2:]), 64)
	if err != nil {
		return line, Exemplar{}, false
	}
	return line[:j], Exemplar{TraceID: id, Value: v}, true
}
