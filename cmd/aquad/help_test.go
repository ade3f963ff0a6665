package main

import (
	"testing"

	"github.com/aquascale/aquascale/internal/clitest"
)

// TestHelpExitsZero requires aquad -h to print its usage and exit 0.
func TestHelpExitsZero(t *testing.T) { clitest.HelpExitsZero(t, main) }
