package policy

import (
	"strings"
	"testing"
)

const goodKey = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

func validPolicy() *Policy {
	return &Policy{
		Tenant: "acme",
		MiddleBoxes: []MiddleBoxSpec{
			{Name: "mon", Type: TypeMonitor, Params: map[string]string{"watch": "/x"}},
			{Name: "enc", Type: TypeEncryption, Params: map[string]string{"key": goodKey}},
			{Name: "rep", Type: TypeReplication, Params: map[string]string{"replicas": "3"}},
			{Name: "fwd", Type: TypeForward},
		},
		Volumes: []VolumeBinding{
			{VM: "vm1", Volume: "vol-0001", Chain: []string{"mon", "enc"}},
			{VM: "vm2", Volume: "vol-0002", Chain: []string{"rep", "fwd"}},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validPolicy().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	data, err := validPolicy().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	p, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Tenant != "acme" || len(p.MiddleBoxes) != 4 || len(p.Volumes) != 2 {
		t.Errorf("round trip lost data: %+v", p)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("{nope")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := Parse([]byte(`{"tenant":""}`)); err == nil {
		t.Error("empty tenant accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Policy)
		wantSub string
	}{
		{"no tenant", func(p *Policy) { p.Tenant = "" }, "tenant"},
		{"unnamed mb", func(p *Policy) { p.MiddleBoxes[0].Name = "" }, "missing name"},
		{"dup mb", func(p *Policy) { p.MiddleBoxes[1].Name = "mon" }, "duplicate"},
		{"bad type", func(p *Policy) { p.MiddleBoxes[0].Type = "teleport" }, "unknown type"},
		{"bad key", func(p *Policy) { p.MiddleBoxes[1].Params["key"] = "abc" }, "AES-256"},
		{"bad replicas", func(p *Policy) { p.MiddleBoxes[2].Params["replicas"] = "1" }, "replicas"},
		{"bad mode", func(p *Policy) { p.MiddleBoxes[0].Mode = "turbo" }, "unknown mode"},
		{"fwd with relay mode", func(p *Policy) { p.MiddleBoxes[3].Mode = ModeActive }, "forward type"},
		{"relay with fwd mode", func(p *Policy) { p.MiddleBoxes[0].Mode = ModeForward }, "forward mode"},
		{"no volumes", func(p *Policy) { p.Volumes = nil }, "volume binding"},
		{"binding no vm", func(p *Policy) { p.Volumes[0].VM = "" }, "missing vm"},
		{"unknown chain", func(p *Policy) { p.Volumes[0].Chain = []string{"ghost"} }, "unknown middle-box"},
		{"shared monitor", func(p *Policy) { p.Volumes[1].Chain = []string{"mon"} }, "one volume"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := validPolicy()
			tt.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate accepted the broken policy")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

func TestEffectiveMode(t *testing.T) {
	if (&MiddleBoxSpec{Type: TypeForward}).EffectiveMode() != ModeForward {
		t.Error("forward type should force forward mode")
	}
	if (&MiddleBoxSpec{Type: TypeMonitor}).EffectiveMode() != ModeActive {
		t.Error("default mode should be active")
	}
	if (&MiddleBoxSpec{Type: TypeMonitor, Mode: ModePassive}).EffectiveMode() != ModePassive {
		t.Error("explicit passive ignored")
	}
}

// TestOverloadKnobValidation: the replicate box's overload knobs are no
// longer policy params (the service defaults apply), so a policy that still
// sets one, valid value or not, is refused naming the key instead of running
// an admission policy it did not ask for.
func TestOverloadKnobValidation(t *testing.T) {
	tests := []struct {
		name, key, value string
	}{
		{"formerly valid", "queueHighWatermark", "256"},
		{"zero watermark", "queueHighWatermark", "0"},
		{"garbage watermark", "queueHighWatermark", "lots"},
		{"zero threshold", "breakerThreshold", "0"},
		{"zero degraded quorum", "degradedQuorum", "0"},
		{"degraded above quorum", "degradedQuorum", "3"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := validPolicy()
			p.MiddleBoxes = append(p.MiddleBoxes, MiddleBoxSpec{Name: "rpl", Type: TypeReplicate,
				Params: map[string]string{"replicaBackends": "3", tt.key: tt.value}})
			p.Volumes[1].Chain = []string{"rpl"}
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate accepted a deleted knob")
			}
			if !strings.Contains(err.Error(), tt.key) {
				t.Errorf("error %q does not mention %q", err, tt.key)
			}
		})
	}
}

func TestKeyAndReplicasAccessors(t *testing.T) {
	enc := &MiddleBoxSpec{Type: TypeEncryption, Params: map[string]string{"key": goodKey}}
	key, err := enc.Key()
	if err != nil || len(key) != 32 {
		t.Errorf("Key() = %d bytes, %v", len(key), err)
	}
	bad := &MiddleBoxSpec{Type: TypeEncryption, Params: map[string]string{"key": "zz"}}
	if _, err := bad.Key(); err == nil {
		t.Error("bad hex accepted")
	}
	rep := &MiddleBoxSpec{Type: TypeReplication, Params: map[string]string{"replicas": "4"}}
	if rep.Replicas() != 4 {
		t.Errorf("Replicas() = %d", rep.Replicas())
	}
}
