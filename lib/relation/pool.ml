(* Kernels are serial; see pool.mli for why these names remain. *)

type stats = { batches : int; tasks : int }

let with_jobs _ f = f ()

let stats () = { batches = 0; tasks = 0 }
