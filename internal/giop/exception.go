package giop

import (
	"fmt"

	"repro/internal/cdr"
)

// Repository ids of the CORBA system exceptions the ORBs and their
// servants raise.
const (
	ExcUnknown        = "IDL:omg.org/CORBA/UNKNOWN:1.0"
	ExcObjectNotExist = "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0"
	ExcTransient      = "IDL:omg.org/CORBA/TRANSIENT:1.0"
	ExcTimeout        = "IDL:omg.org/CORBA/TIMEOUT:1.0"
	ExcBadOperation   = "IDL:omg.org/CORBA/BAD_OPERATION:1.0"
	ExcBadParam       = "IDL:omg.org/CORBA/BAD_PARAM:1.0"
	ExcNoResources    = "IDL:omg.org/CORBA/NO_RESOURCES:1.0"
)

// MinorShed is the lowest TRANSIENT minor code that means the server
// deliberately shed the request (admission refusal, queue eviction,
// saturated topic): the replica is alive and the request never ran.
// Lower minors are plain lane-full refusals.
const MinorShed uint32 = 2

// SystemException is a CORBA system exception: the error a servant
// returns to raise one, and the decoded body of a SYSTEM_EXCEPTION reply.
type SystemException struct {
	ID    string
	Minor uint32
}

func (e *SystemException) Error() string {
	return fmt.Sprintf("giop: system exception %s (minor %d)", e.ID, e.Minor)
}

// EncodeSystemException builds a SYSTEM_EXCEPTION reply body: repository
// id plus minor code.
func EncodeSystemException(id string, minor uint32, order cdr.ByteOrder) []byte {
	e := cdr.AppendEncoder(make([]byte, 0, alignUp(4+len(id)+1, 4)+4), order)
	e.PutString(id)
	e.PutULong(minor)
	return e.Bytes()
}

// DecodeSystemException parses a SYSTEM_EXCEPTION reply body; one whose
// id does not decode reads as UNKNOWN.
func DecodeSystemException(body []byte, order cdr.ByteOrder) *SystemException {
	d := cdr.NewDecoder(body, order)
	id, err := d.String()
	if err != nil {
		return &SystemException{ID: ExcUnknown}
	}
	minor, _ := d.ULong()
	return &SystemException{ID: id, Minor: minor}
}

// ExceptionClass is what a system exception tells the client about the
// fate of its request. Each plane maps the classes onto its own error
// sentinels.
type ExceptionClass int

const (
	// ClassOther is any exception without QoS meaning (raised by the
	// servant, or unknown to this taxonomy): delivered to the caller.
	ClassOther ExceptionClass = iota
	// ClassNotExist: the object key resolved to no servant.
	ClassNotExist
	// ClassTransient: a plain lane-full refusal (TRANSIENT below MinorShed).
	ClassTransient
	// ClassOverload: a deliberate overload shed (TRANSIENT at or above
	// MinorShed) — what circuit breakers count.
	ClassOverload
	// ClassDeadline: the server shed the request because its end-to-end
	// deadline expired before or during dispatch (TIMEOUT).
	ClassDeadline
)

// Class classifies the exception.
func (e *SystemException) Class() ExceptionClass {
	switch e.ID {
	case ExcObjectNotExist:
		return ClassNotExist
	case ExcTransient:
		if e.Minor >= MinorShed {
			return ClassOverload
		}
		return ClassTransient
	case ExcTimeout:
		return ClassDeadline
	default:
		return ClassOther
	}
}
