package harness

import (
	"bytes"
	"encoding/json"
	"fmt"

	"stir/internal/core"
)

// CompareGroupings checks got against the reference want, user by user in
// their (user-ID) order, and returns an error naming the first difference.
// Users compare by their JSON encoding, the form the repository's own
// batch = stream = cluster tests hold byte-identical.
func CompareGroupings(got, want []core.UserGrouping) error {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		g, err := json.Marshal(got[i])
		if err != nil {
			return err
		}
		w, err := json.Marshal(want[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(g, w) {
			return fmt.Errorf("grouping %d (user %d) differs:\n got  %s\n want %s", i, want[i].UserID, g, w)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d groupings, reference has %d", len(got), len(want))
	}
	return nil
}
