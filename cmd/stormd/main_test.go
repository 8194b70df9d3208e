package main

import (
	"testing"

	storm "repro"
)

// TestDemoPolicyParses keeps the built-in demo policy valid under the
// policy parameter table.
func TestDemoPolicyParses(t *testing.T) {
	if _, err := storm.ParsePolicy([]byte(demoPolicy)); err != nil {
		t.Fatal(err)
	}
}
