package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one harness call into a layer. Spans of one episode share its id;
// a span's parent is the call that contains it (0 for an episode's root).
// In-simulation spans hang off the episode's Cluster.Run span. Host times
// are nanoseconds since the traced run began and cover everything the
// process did in the interval, other activities included.
type span struct {
	ID          int    `json:"id"`
	Parent      int    `json:"parent"`
	Episode     int    `json:"episode"`
	Name        string `json:"name"`
	VirtStartNs int64  `json:"virt_start_ns"`
	VirtEndNs   int64  `json:"virt_end_ns"`
	HostStartNs int64  `json:"host_start_ns"`
	HostEndNs   int64  `json:"host_end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how tracing is off.
type tracer struct {
	start time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (t *tracer) begin(episode, parent int, name string, virt time.Duration) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Episode: episode, Name: name,
		VirtStartNs: int64(virt), HostStartNs: int64(time.Since(t.start)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int, virt time.Duration) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.VirtEndNs = int64(virt)
	s.HostEndNs = int64(time.Since(t.start))
}

// virtMsP50 is the median virtual duration, in ms, of the spans called name.
func (t *tracer) virtMsP50(name string) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.VirtEndNs-s.VirtStartNs)/1e6)
		}
	}
	if len(d) == 0 {
		return 0
	}
	sort.Float64s(d)
	return quantile(d, 0.5)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
