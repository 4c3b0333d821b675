package perfmodel

import (
	"encoding/json"
	"fmt"
	"sort"
)

// jsonTable is the serialized form of a lookup table: each point keeps
// its coordinates and raw samples so Monte Carlo draws survive a round
// trip.
type jsonTable struct {
	Label      string      `json:"label"`
	ParamNames []string    `json:"params"`
	Points     []jsonPoint `json:"points"`
}

type jsonPoint struct {
	Coord   []float64 `json:"coord"`
	Samples []float64 `json:"samples"`
}

// MarshalJSON implements json.Marshaler.
func (t *Table) MarshalJSON() ([]byte, error) {
	j := jsonTable{Label: t.Label, ParamNames: t.ParamNames}
	// Deterministic order: sort by coordinate key.
	keys := make([]string, 0, len(t.points))
	byKey := map[string]*tablePoint{}
	for k, pt := range t.points {
		keys = append(keys, k)
		byKey[k] = pt
	}
	sort.Strings(keys)
	for _, k := range keys {
		pt := byKey[k]
		j.Points = append(j.Points, jsonPoint{Coord: pt.coord, Samples: pt.samples})
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Table) UnmarshalJSON(data []byte) error {
	var j jsonTable
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.ParamNames) == 0 {
		return fmt.Errorf("perfmodel: table %q has no parameters", j.Label)
	}
	nt := NewTable(j.Label, j.ParamNames...)
	for i, pt := range j.Points {
		if len(pt.Coord) != len(j.ParamNames) {
			return fmt.Errorf("perfmodel: table %q point %d has %d coords, want %d",
				j.Label, i, len(pt.Coord), len(j.ParamNames))
		}
		p := Params{}
		for d, name := range j.ParamNames {
			p[name] = pt.Coord[d]
		}
		for _, s := range pt.Samples {
			if s < 0 {
				return fmt.Errorf("perfmodel: table %q point %d has negative sample", j.Label, i)
			}
			nt.Add(p, s)
		}
	}
	*t = *nt
	return nil
}
