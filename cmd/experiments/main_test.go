package main

import (
	"errors"
	"reflect"
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
