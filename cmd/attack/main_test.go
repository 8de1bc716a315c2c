package main

import (
	"bytes"
	"testing"
)

// TestSecretFrom: -secret wins over -bytes, -bytes draws a seeded secret of
// its length (zero included), and a negative -bytes is refused.
func TestSecretFrom(t *testing.T) {
	if got, err := secretFrom("hi", 16, 5); err != nil || string(got) != "hi" {
		t.Errorf(`secretFrom("hi", 16, 5) = %q, %v; want "hi"`, got, err)
	}
	a, err := secretFrom("", 16, 5)
	if err != nil || len(a) != 16 {
		t.Fatalf(`secretFrom("", 16, 5) = %d bytes, %v; want 16`, len(a), err)
	}
	if b, _ := secretFrom("", 16, 5); !bytes.Equal(a, b) {
		t.Error("the same seed drew a different secret")
	}
	if got, err := secretFrom("", 0, 5); err != nil || len(got) != 0 {
		t.Errorf(`secretFrom("", 0, 5) = %d bytes, %v; want 0`, len(got), err)
	}
	for _, str := range []string{"", "hi"} {
		if _, err := secretFrom(str, -1, 5); err == nil {
			t.Errorf("secretFrom(%q, -1, 5) accepted a negative -bytes", str)
		}
	}
}
