package server

// AgreementCase is one row of the malformed-input agreement table as an
// /insert request, with the status and code every query endpoint answers.
type AgreementCase struct {
	Name, Method, Body string
	Status             int
	Code               string
}

// InsertAgreement renders the agreement table's rows that apply to an
// object as /insert requests, for the external test package, which can
// build a mutable backend (front imports server).
func InsertAgreement() []AgreementCase {
	var out []AgreementCase
	for _, tc := range malformedInputs {
		if tc.insert {
			out = append(out, AgreementCase{tc.name, tc.method, wireBody("/insert", tc.instances, tc.tail), tc.status, tc.code})
		}
	}
	return out
}

// AppendQuery is the response appender, for the external test package's
// allocation gate on a repeat's answer.
var AppendQuery = appendQuery
