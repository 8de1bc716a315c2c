package main

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"zenspec"
)

// TestResolveNames: a tag expands to exactly the experiments carrying it, in
// registry order; an ID passes through; an unknown name is an unknown
// experiment.
func TestResolveNames(t *testing.T) {
	var revng []string
	for _, e := range zenspec.Experiments() {
		if e.HasTag("revng") {
			revng = append(revng, e.ID)
		}
	}
	if len(revng) == 0 {
		t.Fatal("no experiment carries the revng tag")
	}
	got, err := resolveNames("revng")
	if err != nil || !reflect.DeepEqual(got, revng) {
		t.Errorf(`resolveNames("revng") = %v, %v; want %v`, got, err, revng)
	}
	got, err = resolveNames(" fig12, table1 ,")
	if err != nil || !reflect.DeepEqual(got, []string{"fig12", "table1"}) {
		t.Errorf("IDs did not pass through: %v, %v", got, err)
	}
	if got, err := resolveNames(""); err != nil || got != nil {
		t.Errorf(`resolveNames("") = %v, %v; want nil (everything)`, got, err)
	}
	if _, err := resolveNames("fig2,nope"); !errors.Is(err, zenspec.ErrUnknownExperiment) {
		t.Errorf("unknown name: err = %v, want ErrUnknownExperiment", err)
	}
}

// failingWriter fails every write, as stdout on a full disk does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrShortWrite }

// TestEmit: each form reaches the writer as the report's bytes, a JSON form
// with its trailing newline; a write that fails, in the report or in the
// final flush, exits 2.
func TestEmit(t *testing.T) {
	small := zenspec.ExperimentSuite{Seed: 42, Parallelism: 3, Experiments: []zenspec.ExperimentReport{
		{ID: "x", Title: "<x>", Pass: true, WallMS: 12.5},
	}}
	big := small
	big.Experiments = []zenspec.ExperimentReport{{ID: "x", Detail: strings.Repeat("d", 1<<20)}}
	stable, err := small.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := small.WriteJSON(&plain); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name            string
		stable, jsonOut bool
		want            string
	}{
		{"stable", true, false, string(stable) + "\n"},
		{"json", false, true, plain.String() + "\n"},
		{"text", false, false, small.Text()},
	} {
		var out bytes.Buffer
		if code := emit(&out, small, f.stable, f.jsonOut); code != 0 || out.String() != f.want {
			t.Errorf("%s: exit %d, wrote\n%s\nwant exit 0 and\n%s", f.name, code, out.String(), f.want)
		}
		for _, s := range []zenspec.ExperimentSuite{small, big} {
			if code := emit(failingWriter{}, s, f.stable, f.jsonOut); code != 2 {
				t.Errorf("%s: a failed write of %d detail bytes exits %d, want 2", f.name, len(s.Experiments[0].Detail), code)
			}
		}
	}
}
