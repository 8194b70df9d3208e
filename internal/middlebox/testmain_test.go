package middlebox

import (
	"testing"

	"repro/internal/testutil"
)

// TestMain keeps the tests' write-ahead logs off the disk (see
// testutil.MainInMemory).
func TestMain(m *testing.M) { testutil.MainInMemory(m) }
