package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestEventRingInactiveNoops(t *testing.T) {
	r := NewEventRing(4)
	r.Emit(SolveEvent{TraceID: "x"})
	if got := r.Drain(); len(got) != 0 {
		t.Fatalf("inactive ring recorded %d events", len(got))
	}
	var nilRing *EventRing
	nilRing.Emit(SolveEvent{}) // must not panic
}

func TestEventRingEmitDrain(t *testing.T) {
	r := NewEventRing(8)
	r.SetActive(true)
	for i := 0; i < 3; i++ {
		r.Emit(SolveEvent{TraceID: fmt.Sprintf("req-%d", i), Verdict: VerdictSat})
	}
	evs := r.Drain()
	if len(evs) != 3 {
		t.Fatalf("drained %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("req-%d", i); ev.TraceID != want {
			t.Fatalf("event %d trace id = %q, want %q (order)", i, ev.TraceID, want)
		}
	}
	if got := r.Drain(); len(got) != 0 {
		t.Fatalf("second drain returned %d events", len(got))
	}
}

func TestEventRingWrapsAndCountsDropped(t *testing.T) {
	r := NewEventRing(4)
	r.SetActive(true)
	for i := 0; i < 6; i++ {
		r.Emit(SolveEvent{TraceID: fmt.Sprintf("req-%d", i)})
	}
	if got := r.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	evs := r.Drain()
	if len(evs) != 4 || evs[0].TraceID != "req-2" || evs[3].TraceID != "req-5" {
		t.Fatalf("wrapped drain = %+v", evs)
	}
}

func TestEventSinkStreamsJSONL(t *testing.T) {
	var buf bytes.Buffer
	r := NewEventRing(8)
	r.SetActive(true)
	r.SetSink(&buf)
	r.Emit(SolveEvent{TraceID: "req-1", Verdict: VerdictUnsat, Nodes: 42})
	r.Emit(SolveEvent{TraceID: "req-2", Verdict: VerdictShed, Cause: "queue full"})
	r.FlushSink()

	sc := bufio.NewScanner(&buf)
	var got []SolveEvent
	for sc.Scan() {
		var ev SolveEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("sink line not JSON: %v: %s", err, sc.Text())
		}
		got = append(got, ev)
	}
	if len(got) != 2 || got[0].TraceID != "req-1" || got[0].Nodes != 42 ||
		got[1].Verdict != VerdictShed || got[1].Cause != "queue full" {
		t.Fatalf("sink events = %+v", got)
	}
	// The ring still holds the events: the sink is a tee, not a drain.
	if evs := r.Drain(); len(evs) != 2 {
		t.Fatalf("ring drained %d events after sink writes, want 2", len(evs))
	}
}

func TestWriteEventsJSONL(t *testing.T) {
	var buf bytes.Buffer
	events := []SolveEvent{
		{TraceID: "a", Verdict: VerdictSat, WallNs: 100},
		{TraceID: "b", Verdict: VerdictError, Cause: "parse"},
	}
	if err := WriteEventsJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var ev SolveEvent
	if err := json.Unmarshal(lines[1], &ev); err != nil || ev.Cause != "parse" {
		t.Fatalf("line 2 = %s (err %v)", lines[1], err)
	}
}

// TestEventRingConcurrent exercises Emit under the race detector.
func TestEventRingConcurrent(t *testing.T) {
	r := NewEventRing(64)
	r.SetActive(true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(SolveEvent{TraceID: "t", Verdict: VerdictSat})
			}
		}()
	}
	wg.Wait()
	if got := len(r.Drain()) + int(r.Dropped()); got != 800 {
		t.Fatalf("drained+dropped = %d, want 800", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		found, aborted bool
		want           string
	}{
		{true, false, VerdictSat},
		{false, false, VerdictUnsat},
		{false, true, VerdictUnknown},
		{true, true, VerdictUnknown}, // an aborted search proves nothing
	} {
		if got := Verdict(c.found, c.aborted); got != c.want {
			t.Errorf("Verdict(%v, %v) = %q, want %q", c.found, c.aborted, got, c.want)
		}
	}
}
