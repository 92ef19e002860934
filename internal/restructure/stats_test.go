package restructure

import (
	"reflect"
	"testing"
)

// TestDriverStatsClasses keeps the one stats record honest. Every field
// carries a JSON name and a stat class; with every field set to a distinct
// non-zero value, Scrub zeroes exactly the telemetry fields, Add onto a zero
// record returns the input for every summed field, and the three ratios are
// recomputed from the summed counts, never summed themselves.
func TestDriverStatsClasses(t *testing.T) {
	ratios := map[string]bool{"SCCPRecall": true, "FoldReduction": true, "ReuseRate": true}
	typ := reflect.TypeOf(DriverStats{})
	var in DriverStats
	v := reflect.ValueOf(&in).Elem()
	for i := range typ.NumField() {
		f := typ.Field(i)
		if class := f.Tag.Get("stat"); class != "result" && class != "telemetry" {
			t.Errorf("%s: stat class %q, want \"result\" or \"telemetry\"", f.Name, class)
		}
		if name := f.Tag.Get("json"); name == "" || name == "-" {
			t.Errorf("%s: no JSON name", f.Name)
		}
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(int64(10 * (i + 1)))
		case reflect.Float64:
			if !ratios[f.Name] {
				t.Errorf("%s: a float field Add neither sums nor recomputes", f.Name)
			}
			fv.SetFloat(float64(i) + 0.5)
		case reflect.Map:
			fv.Set(reflect.ValueOf(map[string]int{"check": i + 1}))
		default:
			t.Errorf("%s: kind %s, which Add does not aggregate", f.Name, fv.Kind())
		}
	}

	scrubbed := in
	scrubbed.Scrub()
	sv := reflect.ValueOf(scrubbed)
	for i := range typ.NumField() {
		f := typ.Field(i)
		got := sv.Field(i)
		if f.Tag.Get("stat") == "telemetry" {
			if !got.IsZero() {
				t.Errorf("Scrub kept telemetry field %s = %v", f.Name, got)
			}
		} else if !reflect.DeepEqual(got.Interface(), v.Field(i).Interface()) {
			t.Errorf("Scrub changed result field %s: %v, want %v", f.Name, got, v.Field(i))
		}
	}

	want := in
	want.setRatios()
	failures := in.Failures["check"]
	var once, twice DriverStats
	once.Add(in)
	twice.Add(in)
	twice.Add(in)
	ov, tv, wv := reflect.ValueOf(once), reflect.ValueOf(twice), reflect.ValueOf(want)
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		if ratios[name] {
			// Doubling every count leaves a recomputed ratio unchanged; a
			// summed one would double.
			if ov.Field(i).Float() != wv.Field(i).Float() || tv.Field(i).Float() != wv.Field(i).Float() {
				t.Errorf("Add does not recompute %s: once %v, twice %v, want %v",
					name, ov.Field(i), tv.Field(i), wv.Field(i))
			}
			continue
		}
		if !reflect.DeepEqual(ov.Field(i).Interface(), v.Field(i).Interface()) {
			t.Errorf("Add onto zero: %s = %v, want %v", name, ov.Field(i), v.Field(i))
		}
	}
	if twice.Workers != in.Workers {
		t.Errorf("Add sums Workers: %d, want the maximum %d", twice.Workers, in.Workers)
	}
	if twice.PairsTotal != 2*in.PairsTotal || twice.Failures["check"] != 2*in.Failures["check"] {
		t.Errorf("Add does not sum: pairs %d, failures %v", twice.PairsTotal, twice.Failures)
	}
	if in.Failures["check"] != failures {
		t.Errorf("Add aliased the input's Failures map")
	}
}
