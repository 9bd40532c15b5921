(* Seeded, deterministic fault injection. The RNG is a splitmix64 so
   draw sequences are reproducible across platforms and independent of
   Stdlib.Random's global state. *)

type t = {
  plan : Faults.fault_plan;
  mutable rng : int64;
  mutable remaining : Faults.fault list;
  mutable stragglers : int;
}

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let next_float t =
  t.rng <- Int64.add t.rng 0x9e3779b97f4a7c15L;
  let bits = Int64.shift_right_logical (mix64 t.rng) 11 in
  Int64.to_float bits *. 0x1p-53

let create (plan : Faults.fault_plan) =
  { plan; rng = Int64.of_int plan.seed; remaining = plan.faults;
    stragglers = 0 }

let stragglers t = t.stragglers

let draw t =
  match t.remaining with
  | [] -> None
  | fault :: rest ->
    (* one RNG advance per draw, fired or not, so the sequence of
       injections depends only on the seed and the dispatch order *)
    let u = next_float t in
    if u < t.plan.probability then begin
      t.remaining <- rest;
      (match fault with
       | Faults.Straggler _ -> t.stragglers <- t.stragglers + 1
       | Faults.Engine_rejection _ | Faults.Worker_failure _ -> ());
      Some fault
    end
    else None
