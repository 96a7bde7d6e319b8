package p

type T struct{ n int }

func (T) Bad() {}
