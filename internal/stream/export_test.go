package stream

// GenerateBodies and UseGenerateBody let the pipeline tests run under
// every source body this CPU has.
var (
	GenerateBodies  = generateBodies
	UseGenerateBody = useGenerateBody
)
