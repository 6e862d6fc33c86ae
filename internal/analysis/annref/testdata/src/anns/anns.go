// Package anns exercises the annref analyzer: spandex protocol
// directives must reference enumerators of the visible MsgType enum, and
// at= lists and wait suffixes must name states the receiver's own
// //spandex:transition directives mention.
package anns

// MsgType mirrors the shape of the real proto.MsgType enum; annref finds
// it by name in the package under analysis.
type MsgType int

const (
	ReqV MsgType = iota
	ReqS
	RspV
	RvkO
	RspRvkO
	InvAck
	MemRead
	MemReadRsp
)

// LLC is an annotated unit: its transition directives define the state
// vocabulary the at= and wait-suffix checks resolve against.
type LLC struct{}

func (l *LLC) handle() {
	//spandex:transition ReqV from=I to=F+fetch emits=MemRead
	//spandex:transition ReqS from=V|F+fetch to=V emits=RspV
	//spandex:transition MemReadRsp from=F+fetch to=V
	//spandex:unreachable InvAck at=V solicited probes always find the open transaction
	//spandex:flow queue ReqV at=F+fetch
	//spandex:flow wait +fetch awaits=MemReadRsp via=MemRead
	//spandex:flow emit RvkO dst=some-device
}

func (l *LLC) bad() {
	//spandex:transition ReqX from=I // want `unknown message type "ReqX" in //spandex:transition`
	//spandex:transition ReqV from=I emits=RspX // want `unknown message type "RspX" in //spandex:transition emits=`
	//spandex:transition ReqV to=V // want `from= is required`
	//spandex:transition ReqV from=I bogus=V // want `unknown field "bogus=V"`
	//spandex:transition from=I // want `first field must be the message name`
	//spandex:unreachable InvAck at=Z never solicited // want `state "Z" in unreachable at= matches no //spandex:transition state of LLC`
	//spandex:unreachable InvAck at=V // want `a justification is required`
	//spandex:unreachable InvAck nowhere ever // want `at=<states> is required`
	//spandex:unreachable BadMsg at=V justified // want `unknown message type "BadMsg" in //spandex:unreachable`
	//spandex:flow queue ReqV at=Q+inv // want `state "Q\+inv" in flow queue at= matches no //spandex:transition state of LLC`
	//spandex:flow wait +rvk awaits=RspRvkO via=RvkO // want `wait suffix "\+rvk" matches no //spandex:transition state of LLC`
	//spandex:flow wait grant awaits=Nope via=MemRead // want `unknown message type "Nope" in //spandex:flow wait awaits=`
	//spandex:flow emit RvkO // want `dst= is required`
	//spandex:flow bogus x // want `unknown directive "bogus"`
	//spandex:flow queue // want `need a directive kind and operand`
}

// reader holds directives the shared reader rejects, each with the one
// message spandex-graph aborts with, and a spaced comment it does not read
// at all: only the exact //spandex: form is a directive.
func (l *LLC) reader() {
	//spandex:flow wait +fetch awaits=MemReadRsp // want `^//spandex:flow wait: via= is required$`
	//spandex:flow emit RvkO dst= // want `^//spandex:flow emit: malformed field "dst="$`
	//spandex:unreachable InvAck at= never solicited // want `^//spandex:unreachable: malformed field "at="$`
	//spandex:unreachble InvAck at=V never solicited // want `^//spandex:unreachble: unknown directive kind`
	//spandex:transitions ReqV from=I // want `^//spandex:transitions: unknown directive kind`
	// spandex:transition ReqX from=I
	//spandex:transition ReqV from=I from=V // want `duplicate field "from=V"`
	//spandex:flow wait grant awaits=RspV via=ReqS opener=all // want `unknown field "opener=all"`
	//spandex:maprange // want `^//spandex:maprange: a justification is required$`
	//spandex:flow queue ReqV at=F+fetch,Q // want `state "Q" in flow queue at=`
	//spandex:flow wait grant awaits=RspV|Nope via=MemRead // want `unknown message type "Nope"`
}

// TU is an extracted-style unit: no transition annotations, so state
// references cannot be resolved and only message names are checked.
type TU struct{}

func (t *TU) handle() {
	//spandex:flow queue ReqV,ReqS
	//spandex:flow wait grant awaits=RspV via=ReqS opener=any
	//spandex:flow wait +probe awaits=RspV via=ReqS
}

//spandex:transition ReqV from=I // want `//spandex:transition directive outside a method body`
