package q

import "example.com/xtest/p"

func Use(t p.T) p.T { return t }
