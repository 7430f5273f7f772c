package exec

import (
	"reflect"
	"testing"
)

// TestCounterTableCoversEveryField fails unless each Counters field has
// exactly one counterDefs entry, and no two entries share a span key or a
// metric name.
func TestCounterTableCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Counters{})
	if len(counterDefs) != typ.NumField() {
		t.Errorf("counterDefs has %d entries for %d Counters fields", len(counterDefs), typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		var c Counters
		reflect.ValueOf(&c).Elem().Field(i).SetInt(1)
		entries := 0
		for _, d := range counterDefs {
			if *d.field(&c) == 1 {
				entries++
			}
		}
		if entries != 1 {
			t.Errorf("Counters.%s has %d counterDefs entries, want 1", typ.Field(i).Name, entries)
		}
	}
	attrs, metrics := map[string]bool{}, map[string]bool{}
	for _, d := range counterDefs {
		if d.attr == "" || attrs[d.attr] {
			t.Errorf("span key %q empty or declared twice", d.attr)
		}
		attrs[d.attr] = true
		if d.metric != "" && metrics[d.metric] {
			t.Errorf("metric %q declared twice", d.metric)
		}
		metrics[d.metric] = true
	}
}
