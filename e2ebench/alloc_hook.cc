// Installs the library's counting operator new/delete (obs/alloc_hook.h)
// in the traced driver only, so per-layer allocation counts are real there
// and the untraced driver's timings carry no counting cost.
#include "obs/alloc_hook.h"
