package main

import "testing"

func TestOnlyCaller(t *testing.T) { testOnly() }
