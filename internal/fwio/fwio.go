// Package fwio persists trained core.Framework instances: one train,
// many serves. An artifact carries every fitted component — social
// graph, LDA topic model, per-user theta index, Historical Acceptance
// mobility model, location-entropy table, RRR collection — plus the
// full training configuration, in a versioned JSON envelope sealed with
// a SHA-256 content checksum (the same scheme as experiments shard
// artifacts). Loading rebuilds the framework through core.Restore, and
// the round trip is bit-exact: every downstream output of a loaded
// framework — sessions, assignments, sweep metrics — is DeepEqual to
// what retraining from the same dataset would produce.
//
// The wire format is pinned by the component Wire types
// (socialgraph.Wire, lda.Wire, mobility.Wire, entropy.Wire, rrr.Wire)
// and by Version here; a reader rejects any artifact whose version it
// does not speak, whole — an artifact is never partially used.
package fwio

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"dita/internal/atomicio"
	"dita/internal/core"
	"dita/internal/entropy"
	"dita/internal/lda"
	"dita/internal/mobility"
	"dita/internal/rrr"
	"dita/internal/socialgraph"
)

// Kind identifies framework artifacts; a loader handed some other JSON
// file (a shard artifact, a bench report) fails fast on this field
// rather than deep in component validation.
const Kind = "dita-framework"

// Version is the artifact format version this build writes and reads.
// The compatibility rule is exact match: any change to a component wire
// format, the envelope, or the canonical encoding bumps it, and a
// reader rejects every version it does not speak.
const Version = 2

// artifact is the on-disk envelope. Field order is the canonical
// encoding order (struct marshalling is deterministic); Checksum seals
// the whole.
type artifact struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	// Source identifies the training input (dataset name, dimensions,
	// seed, cutoff); consumers compare it against the input they would
	// have trained on so a framework is never served against a sweep it
	// was not fitted for.
	Source string           `json:"source,omitempty"`
	Config core.Config      `json:"config"`
	Graph  socialgraph.Wire `json:"graph"`
	LDA    lda.Wire         `json:"lda"`
	// ThetaUsers lists, in ascending order, the user ids with a topic
	// mixture (users whose training document was non-empty). The rows
	// themselves live in the LDA model's theta; restoring re-aliases
	// them exactly as core.Train does.
	ThetaUsers  []int32       `json:"theta_users"`
	Mobility    mobility.Wire `json:"mobility"`
	Entropy     entropy.Wire  `json:"entropy"`
	Propagation rrr.Wire      `json:"propagation"`
	// Checksum is the SHA-256 of the artifact's canonical encoding
	// (itself with Checksum empty), recorded by Encode and verified by
	// every load: a torn, truncated or bit-flipped artifact is rejected
	// before any component is used.
	Checksum string `json:"checksum,omitempty"`
}

// payload is the canonical byte form the checksum covers: the artifact
// with its Checksum field empty, marshalled compactly (artifacts reach
// tens of megabytes; indentation would double them). The loader
// re-derives these bytes from the decoded value — JSON round-trips
// every finite float64 bit-exactly, so decode-then-re-encode is stable.
func (a *artifact) payload() ([]byte, error) {
	c := *a
	c.Checksum = ""
	return json.Marshal(&c)
}

// Info describes a loaded artifact: where its training input came from
// and the content checksum that sealed it.
type Info struct {
	Source   string
	Checksum string
}

// Encode serializes a trained framework into a sealed artifact and
// returns the bytes plus the content checksum. source is recorded
// verbatim (see artifact.Source).
func Encode(fw *core.Framework, source string) ([]byte, string, error) {
	theta := fw.Theta()
	users := make([]int32, 0, len(theta))
	for u, row := range theta {
		if row == nil {
			continue
		}
		// Train aliases theta rows into the LDA model's theta; the
		// artifact stores only the index list, so a framework whose rows
		// diverged from the model (a hand-built Restore) cannot be
		// encoded faithfully and must be refused.
		if !slices.Equal(row, fw.LDA().DocTopics(u)) {
			return nil, "", fmt.Errorf("fwio: theta row %d does not match the LDA model's document mixture — framework not encodable", u)
		}
		users = append(users, int32(u))
	}
	a := &artifact{
		Kind:        Kind,
		Version:     Version,
		Source:      source,
		Config:      fw.Config(),
		Graph:       fw.Graph().Wire(),
		LDA:         fw.LDA().Wire(),
		ThetaUsers:  users,
		Mobility:    fw.Mobility().Wire(),
		Entropy:     fw.Entropy().Wire(),
		Propagation: fw.Propagation().Wire(),
	}
	body, err := a.payload()
	if err != nil {
		return nil, "", fmt.Errorf("fwio: encoding framework: %w", err)
	}
	a.Checksum = atomicio.Sum(body)
	out, err := json.Marshal(a)
	if err != nil {
		return nil, "", fmt.Errorf("fwio: encoding framework: %w", err)
	}
	return append(out, '\n'), a.Checksum, nil
}

// Write encodes the framework and writes the artifact atomically (temp
// file + fsync + rename), returning the content checksum. A crash
// mid-write leaves at most a *.tmp file, never a half-written artifact.
func Write(path string, fw *core.Framework, source string) (string, error) {
	data, sum, err := Encode(fw, source)
	if err != nil {
		return "", err
	}
	if err := atomicio.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("fwio: writing framework artifact: %w", err)
	}
	return sum, nil
}

// Decode parses a sealed artifact and rebuilds the framework. Checks
// run envelope-out: kind, then version, then the content checksum, then
// per-component wire validation — so a version-skewed artifact is
// reported as such rather than as a checksum or component error, and no
// component is ever built from bytes that failed an earlier check.
func Decode(data []byte) (*core.Framework, Info, error) {
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, Info{}, fmt.Errorf("fwio: reading framework artifact: %w", err)
	}
	if a.Kind != Kind {
		return nil, Info{}, fmt.Errorf("fwio: not a framework artifact (kind %q, want %q)", a.Kind, Kind)
	}
	if a.Version != Version {
		return nil, Info{}, fmt.Errorf("fwio: artifact version %d not supported (this build reads version %d)", a.Version, Version)
	}
	if a.Checksum == "" {
		return nil, Info{}, fmt.Errorf("fwio: framework artifact carries no content checksum — unsealed or truncated write")
	}
	body, err := a.payload()
	if err != nil {
		return nil, Info{}, fmt.Errorf("fwio: reading framework artifact: %w", err)
	}
	if sum := atomicio.Sum(body); sum != a.Checksum {
		return nil, Info{}, fmt.Errorf("fwio: framework artifact checksum mismatch (recorded %.12s…, content %.12s…) — torn or corrupted write", a.Checksum, sum)
	}

	g, err := socialgraph.FromWire(a.Graph)
	if err != nil {
		return nil, Info{}, fmt.Errorf("fwio: artifact graph: %w", err)
	}
	ldaModel, err := lda.FromWire(a.LDA)
	if err != nil {
		return nil, Info{}, fmt.Errorf("fwio: artifact LDA model: %w", err)
	}
	mob, err := mobility.FromWire(a.Mobility)
	if err != nil {
		return nil, Info{}, fmt.Errorf("fwio: artifact mobility model: %w", err)
	}
	ent, err := entropy.FromWire(a.Entropy)
	if err != nil {
		return nil, Info{}, fmt.Errorf("fwio: artifact entropy table: %w", err)
	}
	prop, err := rrr.FromWire(g, a.Propagation)
	if err != nil {
		return nil, Info{}, fmt.Errorf("fwio: artifact propagation collection: %w", err)
	}
	theta := make([][]float64, g.N())
	for i, u := range a.ThetaUsers {
		if i > 0 && u <= a.ThetaUsers[i-1] {
			return nil, Info{}, fmt.Errorf("fwio: artifact theta_users not strictly ascending at index %d (%d after %d)", i, u, a.ThetaUsers[i-1])
		}
		if u < 0 || int(u) >= g.N() {
			return nil, Info{}, fmt.Errorf("fwio: artifact theta user %d out of range [0,%d)", u, g.N())
		}
		if int(u) >= len(a.LDA.Theta) {
			return nil, Info{}, fmt.Errorf("fwio: artifact theta user %d beyond the LDA model's %d documents", u, len(a.LDA.Theta))
		}
		theta[u] = ldaModel.DocTopics(int(u))
	}
	fw, err := core.Restore(a.Config, g, ldaModel, theta, mob, ent, prop)
	if err != nil {
		return nil, Info{}, fmt.Errorf("fwio: restoring framework: %w", err)
	}
	return fw, Info{Source: a.Source, Checksum: a.Checksum}, nil
}

// Load reads and decodes an artifact file. Every failure names the
// offending path.
func Load(path string) (*core.Framework, Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Info{}, fmt.Errorf("fwio: loading framework artifact: %w", err)
	}
	fw, info, err := Decode(data)
	if err != nil {
		return nil, Info{}, fmt.Errorf("%s: %w", path, err)
	}
	return fw, info, nil
}
