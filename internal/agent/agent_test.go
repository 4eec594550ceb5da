package agent

import "testing"

func TestValidate(t *testing.T) {
	t.Parallel()

	if err := Validate("k", 3, 1); err != nil {
		t.Errorf("Validate(3 >= 1) should pass, got %v", err)
	}
	if err := Validate("k", 0, 1); err == nil {
		t.Error("Validate(0 >= 1) should fail")
	}
	if err := Validate("d", -2, 0); err == nil {
		t.Error("Validate(-2 >= 0) should fail")
	}
}
