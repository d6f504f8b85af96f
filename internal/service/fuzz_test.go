package service

import (
	"encoding/json"
	"errors"
	"testing"

	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
)

// FuzzJobSpecDecode hardens the submission path's pure half: arbitrary bytes
// either fail JSON decoding, fail shape validation with a typed
// errs.ErrInvalidConfig (so the HTTP layer maps them to 400), or yield a spec
// with a recognized kind. It must never panic and never classify a bad spec
// as anything but an invalid-config error — fault_config included, since that
// is the field the worker would otherwise choke on asynchronously.
func FuzzJobSpecDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"kind":"flashwalker","graph":"TT-S","num_walks":100,"seed":7}`,
		`{"kind":"graphwalker","graph":"TT-S","mem_bytes":1048576}`,
		`{"kind":"bogus"}`,
		`{"num_walks":-1}`,
		`{"mem_bytes":-5}`,
		`{"fault_config":{"enabled":true,"seed":64023,"read_error_rate":0.02,"plane_busy_rate":0.05,"plane_busy_time":25000,"max_retries":4,"retry_backoff":10000,"degrade_after_errors":64,"degraded_read_penalty":35000}}`,
		`{"fault_config":{"enabled":true,"read_error_rate":2}}`,
		`{"fault_config":{"max_retries":-1}}`,
		`{"fault_config":{"max_retries":1000}}`,
		`{"fault_config":{"retry_backoff":-1}}`,
		`{"fault_config":null}`,
		`{"checkpoint_every":18446744073709551615}`,
		`{"kind":"flashwalker","graph":"MB-S","boards":4}`,
		`{"boards":-1}`,
		`{"boards":65}`,
		`{"boards":2,"fabric_latency_ns":1000,"fabric_mbps":4000}`,
		`{"fabric_latency_ns":-1}`,
		`{"fabric_mbps":-1}`,
		`{"boards":2,"fault_config":{"kill_board_at":500000,"kill_board":1}}`,
		`{"boards":1,"fault_config":{"kill_board_at":500000}}`,
		`{"boards":2,"fault_config":{"kill_board_at":500000,"kill_board":2}}`,
		`{"fault_config":{"kill_board_at":-1}}`,
		`{"kind":"flashwalker","graph":"TT-S","mutations":[{"at_ns":0,"op":"insert","src":1,"dst":2}]}`,
		`{"kind":"graphwalker","graph":"TT-S","mutations":[{"op":"insert","src":1,"dst":2}]}`,
		`{"mutations":[{"at_ns":-1,"op":"insert","src":0,"dst":0}]}`,
		`{"mutations":[{"op":"rewire","src":0,"dst":0}]}`,
		`{"kind":"flashwalker","graph":"TT-S","mutations":[{"at_ns":0,"op":"insert","src":4294967294,"dst":4294967294}]}`,
		`{"kind":"flashwalker","graph":"TT-S","mutations":[{"at_ns":0,"op":"insert","src":4294967295,"dst":0}]}`,
		`{"kind":"flashwalker","graph":"TT-S","mutations":[{"at_ns":0,"op":"delete","src":0,"dst":4294967296}]}`,
		`{"kind":"flashwalker","graph":"TT-S","mutations":[{"at_ns":0,"op":"insert","src":4294967297,"dst":1}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		err := spec.validate()
		if err != nil {
			if !errors.Is(err, errs.ErrInvalidConfig) {
				t.Fatalf("validate returned an untyped error: %v", err)
			}
			return
		}
		// A spec that validates must be fully normalized in shape: a
		// recognized kind and non-negative scalars.
		if spec.Kind != KindFlashWalker && spec.Kind != KindGraphWalker {
			t.Fatalf("validated spec has kind %q", spec.Kind)
		}
		if spec.NumWalks < 0 || spec.MemBytes < 0 {
			t.Fatalf("validated spec kept negative scalars: %+v", spec)
		}
		if spec.Boards < 0 || spec.FabricLatencyNS < 0 || spec.FabricMBps < 0 {
			t.Fatalf("validated spec kept negative array fields: %+v", spec)
		}
		if spec.FaultConfig != nil {
			if fc := *spec.FaultConfig; fc.MaxRetries < 0 || fc.RetryBackoff < 0 {
				t.Fatalf("validated spec kept invalid fault_config: %+v", fc)
			}
			// A validated kill must have a live target: boards > 1 and the
			// killed index inside the array.
			if fc := *spec.FaultConfig; fc.KillBoardAt > 0 && (spec.Boards <= 1 || fc.KillBoard >= spec.Boards) {
				t.Fatalf("validated spec kept an untargetable kill: %+v", spec)
			}
		}
		// A validated mutation stream must be well-shaped and never ride on
		// the host baseline, which does not support mutations.
		if len(spec.Mutations) > 0 {
			if spec.Kind == KindGraphWalker {
				t.Fatalf("validated spec kept mutations on the host baseline: %+v", spec)
			}
			if err := spec.Mutations.ValidateShape(); err != nil {
				t.Fatalf("validated spec kept a malformed mutation stream: %v", err)
			}
		}
	})
}

// FuzzMutationStreamDecode hardens the mutation-stream half of the
// submission path: arbitrary bytes either fail JSON decoding, fail
// validation with a typed errs.ErrInvalidConfig (so the HTTP layer maps
// them to 400 invalid_config), or decode to a stream whose shape invariants
// all hold. It must never panic — graph.MutationStream.ValidateShape and
// JobSpec.validate are both driven directly with whatever decodes.
func FuzzMutationStreamDecode(f *testing.F) {
	for _, seed := range []string{
		`[]`,
		`null`,
		`[{"at_ns":0,"op":"insert","src":1,"dst":2}]`,
		`[{"at_ns":0,"op":"insert","src":1,"dst":2,"weight":2.5}]`,
		`[{"at_ns":1000,"op":"delete","src":3,"dst":4}]`,
		`[{"at_ns":5,"op":"insert","src":0,"dst":0},{"at_ns":5,"op":"delete","src":0,"dst":0}]`,
		`[{"at_ns":10,"op":"insert","src":0,"dst":1},{"at_ns":9,"op":"insert","src":0,"dst":2}]`,
		`[{"at_ns":-1,"op":"insert","src":0,"dst":0}]`,
		`[{"op":"rewire","src":0,"dst":0}]`,
		`[{"op":"delete","src":0,"dst":0,"weight":1.5}]`,
		`[{"op":"insert","src":0,"dst":0,"weight":-1}]`,
		`[{"op":"insert","src":0,"dst":0,"weight":1e39}]`,
		`[{"op":"insert","src":18446744073709551615,"dst":0}]`,
		`[{"op":"insert","src":4294967294,"dst":4294967294}]`,
		`[{"op":"insert","src":4294967295,"dst":0}]`,
		`[{"op":"delete","src":0,"dst":4294967296}]`,
		`[{"op":"insert","src":4294967297,"dst":1}]`,
		`[{}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms graph.MutationStream
		if err := json.Unmarshal(data, &ms); err != nil {
			return
		}
		shapeErr := ms.ValidateShape()

		// The stream embedded in a spec must classify the same way: a
		// malformed stream is an invalid-config error, never a panic and
		// never an untyped failure.
		spec := JobSpec{Kind: KindFlashWalker, Graph: "TT-S", Mutations: ms}
		err := spec.validate()
		if err != nil {
			if !errors.Is(err, errs.ErrInvalidConfig) {
				t.Fatalf("validate returned an untyped error: %v", err)
			}
			return
		}
		if shapeErr != nil && len(ms) <= maxMutations {
			t.Fatalf("spec validated but stream shape is bad: %v", shapeErr)
		}
		// Shape holds: re-check the invariants validation promises.
		prev := int64(0)
		for i, m := range ms {
			if m.At < prev {
				t.Fatalf("validated stream is unsorted at %d", i)
			}
			prev = m.At
			if m.Op != graph.OpInsertEdge && m.Op != graph.OpDeleteEdge {
				t.Fatalf("validated stream kept unknown op %q", m.Op)
			}
			if m.Op == graph.OpDeleteEdge && m.Weight != 0 {
				t.Fatalf("validated stream kept a weighted delete at %d", i)
			}
		}
	})
}
