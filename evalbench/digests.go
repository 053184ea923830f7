package main

// recordedDigests holds the fig experiment's summary digest per workload
// seed, recorded from the seed commit. A fig run at one of these seeds
// fails its oracle unless every summary it computes — cold and warm —
// reproduces the record byte for byte.
var recordedDigests = map[int64]string{
	0:  "49ce9b7185892d00e37c327403ad9027a7ce4e6113dc874599d614ff8f63bfaf",
	1:  "6553d06187dfe3f8d4a41f60e479f02a07563f7a55e16ed67146a894feb62c72",
	2:  "c2a8619f169cd9666575573725ce61008779c71d41d9a0851627123847b58092",
	3:  "1a22fcf9a099b79e2783ca19abae0cc9ec00b8c6e1048b2f511b3bfe892a3fee",
	4:  "6ea252c9a0d8d8d3e0722f122f3159f6efd3482b12d139ae0f7b573aa4f357f3",
	5:  "f84f1f2d82aa35e2fa83f181e4a356720d7b4310a0cb596a13d43017a8183815",
	6:  "793b68e7b137d77f666b8b6716e1391eb499feacef9ba0c0a5bf6010d076e3ce",
	7:  "b8520d22fb948b1f12db4be73d61d63514c22a6a2539467960e2a6d3f74116ab",
	8:  "39f766efab5e8d312350dce63e588b5e7d7af767e6a3f9ead560cad889702c46",
	9:  "d5aafb124634a84044c3e17cf1f5c4dda78dc9062c6ae9816c8d19cbea6ad883",
	10: "5e6e7b9c5d5b02a08ff5aa9875938f9c92ed05e8e0035e160f18d69c955dce47",
}
