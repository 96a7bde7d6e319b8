package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("")
	if err != nil || len(all) == 0 {
		t.Fatalf("empty -only: %d experiments, %v", len(all), err)
	}
	got, err := selectExperiments(" E-T9, E-F1 ,")
	if err != nil || len(got) != 2 || got[0].ID != "E-F1" || got[1].ID != "E-T9" {
		t.Fatalf("known IDs: %v, %v", got, err)
	}
	_, err = selectExperiments("E-T3,E-T8,E-X")
	if err == nil || !strings.Contains(err.Error(), "E-T8,E-X") || strings.Contains(err.Error(), "E-T3") {
		t.Fatalf("unknown IDs: %v", err)
	}
}
