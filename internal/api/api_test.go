package api_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"leanconsensus/internal/api"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/trace"
)

// fill sets every field reachable from v to a non-zero value, so a
// marshalled value carries every field, omitempty ones too. Integer
// kinds get 1, which is a valid obslog.Kind and trace.Kind.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	}
}

// TestStringKindedMirrors holds the three deliberate copies to their
// owners: a fully populated obslog.Event or trace.Instance, decoded into
// its api mirror and marshalled again, must give the owner's exact
// bytes. A field added to the journal or the flight recorder without
// its wire counterpart fails here.
func TestStringKindedMirrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		owner  any
		mirror any
	}{
		{"obslog.Event", new(obslog.Event), new(api.Event)},
		{"trace.Instance", new(trace.Instance), new(api.TraceInstance)},
	} {
		fill(reflect.ValueOf(tc.owner).Elem())
		want, err := json.Marshal(tc.owner)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, tc.mirror); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(tc.mirror)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s mirror drifted\n got %s\nwant %s", tc.name, got, want)
		}
	}
}

// TestTraces pins the capture conversion to the owner's encoding, and
// nil to nil (an untraced arena has no captures).
func TestTraces(t *testing.T) {
	if api.Traces(nil) != nil {
		t.Fatal("Traces(nil) != nil")
	}
	captures := make([]trace.Instance, 2)
	for i := range captures {
		fill(reflect.ValueOf(&captures[i]).Elem())
	}
	want, _ := json.Marshal(captures)
	got, _ := json.Marshal(api.Traces(captures))
	if string(got) != string(want) {
		t.Errorf("Traces\n got %s\nwant %s", got, want)
	}
}
