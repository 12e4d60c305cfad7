package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// modelSnapshot is the on-disk form of a Model: architecture plus weights.
// Training state (gradients, momentum) is not persisted — a loaded model is
// for inference or fresh fine-tuning.
type modelSnapshot struct {
	InDim, Hidden, Layers int
	Wx, Wh, B             [][]float64
	DropW, DropB          []float64
	LatW, LatB            []float64
}

// Save writes the model to w in gob format.
func (m *Model) Save(w io.Writer) error {
	snap := modelSnapshot{
		InDim: m.InDim, Hidden: m.Hidden, Layers: m.Layers,
		DropW: m.DropHead.W, DropB: m.DropHead.B,
		LatW: m.LatHead.W, LatB: m.LatHead.B,
	}
	for _, l := range m.lstm {
		snap.Wx = append(snap.Wx, l.Wx)
		snap.Wh = append(snap.Wh, l.Wh)
		snap.B = append(snap.B, l.B)
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("nn: encoding model: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var snap modelSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	if snap.InDim <= 0 || snap.Hidden <= 0 || snap.Layers <= 0 ||
		len(snap.Wx) != snap.Layers || len(snap.Wh) != snap.Layers || len(snap.B) != snap.Layers {
		return nil, fmt.Errorf("nn: corrupt model snapshot")
	}
	m := &Model{InDim: snap.InDim, Hidden: snap.Hidden, Layers: snap.Layers}
	for l := 0; l < snap.Layers; l++ {
		in := snap.InDim
		if l > 0 {
			in = snap.Hidden
		}
		layer := &lstmLayer{
			In: in, Hidden: snap.Hidden,
			Wx: snap.Wx[l], Wh: snap.Wh[l], B: snap.B[l],
			dWx: make([]float64, 4*snap.Hidden*in),
			dWh: make([]float64, 4*snap.Hidden*snap.Hidden),
			dB:  make([]float64, 4*snap.Hidden),
		}
		if len(layer.Wx) != 4*snap.Hidden*in || len(layer.Wh) != 4*snap.Hidden*snap.Hidden ||
			len(layer.B) != 4*snap.Hidden {
			return nil, fmt.Errorf("nn: layer %d weight shapes inconsistent", l)
		}
		layer.pack()
		m.lstm = append(m.lstm, layer)
	}
	mk := func(w, b []float64, in int) (*Dense, error) {
		if len(w) != in || len(b) != 1 {
			return nil, fmt.Errorf("nn: head shape inconsistent")
		}
		return &Dense{In: in, Out: 1, W: w, B: b,
			dW: make([]float64, in), dB: make([]float64, 1)}, nil
	}
	var err error
	if m.DropHead, err = mk(snap.DropW, snap.DropB, snap.Hidden); err != nil {
		return nil, err
	}
	if m.LatHead, err = mk(snap.LatW, snap.LatB, snap.Hidden); err != nil {
		return nil, err
	}
	return m, nil
}
