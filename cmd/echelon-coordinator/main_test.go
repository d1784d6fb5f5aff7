package main

import (
	"testing"

	"echelonflow/internal/fabric"
)

func TestAddHostSpec(t *testing.T) {
	tests := []struct {
		spec      string
		wantErr   bool
		wantHosts []string
	}{
		{"w1=100", false, []string{"w1"}},
		{"gpu[0-2]=5e3", false, []string{"gpu0", "gpu1", "gpu2"}},
		{"noequals", true, nil},
		{"w1=notanumber", true, nil},
		{"w1=-5", true, nil},
		{"w1=0", true, nil},
		{"gpu[2-0]=10", true, nil},
		{"gpu[a-b]=10", true, nil},
		{"gpu[0=10", true, nil},
		{"gpu]0[=10", true, nil},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			n := fabric.NewNetwork()
			err := addHostSpec(n, tt.spec)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			for _, h := range tt.wantHosts {
				if n.Host(h) == nil {
					t.Errorf("host %q missing", h)
				}
			}
			if !tt.wantErr && n.Len() != len(tt.wantHosts) {
				t.Errorf("host count = %d, want %d", n.Len(), len(tt.wantHosts))
			}
		})
	}
}

func TestAddHostSpecDuplicate(t *testing.T) {
	n := fabric.NewNetwork()
	if err := addHostSpec(n, "w1=10"); err != nil {
		t.Fatal(err)
	}
	if err := addHostSpec(n, "w[0-2]=10"); err == nil {
		t.Error("duplicate host w1 accepted")
	}
}
