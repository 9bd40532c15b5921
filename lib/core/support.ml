type while_policy =
  | Native_iteration
  | Expand_per_iteration
  | No_while

let while_support = function
  | Engines.Backend.Spark | Engines.Backend.Naiad | Engines.Backend.Serial_c
  | Engines.Backend.Power_graph | Engines.Backend.Graph_chi
  | Engines.Backend.Giraph | Engines.Backend.X_stream ->
    Native_iteration
  | Engines.Backend.Hadoop | Engines.Backend.Metis -> Expand_per_iteration

type shape = {
  black_boxes : string list;
  operators : int;
  whiles : int;
  shuffles : int;
  graph_job : bool Lazy.t;
}

let count p l = List.fold_left (fun n x -> if p x then n + 1 else n) 0 l

let shape kinds ~vertex_centric =
  let whiles =
    count (function Ir.Operator.While _ -> true | _ -> false) kinds
  and operators = List.length kinds in
  { black_boxes =
      List.filter_map
        (function
          | Ir.Operator.Black_box { backend_hint; _ } -> Some backend_hint
          | _ -> None)
        kinds;
    operators;
    whiles;
    shuffles = count Ir.Operator.needs_shuffle kinds;
    graph_job =
      (if operators = 1 && whiles = 1 then vertex_centric else lazy false) }

type refusal =
  | Black_box_elsewhere of string
  | Not_graph_job
  | While_not_alone
  | Cannot_iterate
  | Shuffles of int

let reason backend refusal =
  let name = Engines.Backend.name backend in
  match refusal with
  | Black_box_elsewhere hint ->
    Printf.sprintf "black-box operator requires %s, not %s" hint name
  | Not_graph_job ->
    Printf.sprintf "%s only runs vertex-centric (GAS) graph jobs" name
  | While_not_alone ->
    Printf.sprintf "%s can only run a WHILE as a standalone job chain" name
  | Cannot_iterate -> Printf.sprintf "%s cannot iterate" name
  | Shuffles n ->
    Printf.sprintf "%s supports one group-by-key operation per job; set has %d"
      name n

let ok_shuffles backend s =
  if Engines.Backend.general_purpose backend || s.shuffles <= 1 then Ok ()
  else Error (Shuffles s.shuffles)

let black_box_elsewhere backend = function
  | [] -> None
  | hints ->
    let engine = String.lowercase_ascii (Engines.Backend.name backend) in
    List.find_opt (fun h -> String.lowercase_ascii h <> engine) hints

let check backend s =
  match black_box_elsewhere backend s.black_boxes with
  | Some hint -> Error (Black_box_elsewhere hint)
  | None ->
    if Engines.Backend.gas_only backend then
      if Lazy.force s.graph_job then Ok () else Error Not_graph_job
    else
      match while_support backend with
      | Native_iteration -> ok_shuffles backend s
      | _ when s.whiles = 0 -> ok_shuffles backend s
      | Expand_per_iteration when s.operators = 1 ->
        (* the executor turns this into per-iteration job chains *)
        Ok ()
      | Expand_per_iteration -> Error While_not_alone
      | No_while -> Error Cannot_iterate


let check_bool backend g ids =
  let kinds = List.map (fun id -> (Ir.Dag.node g id).Ir.Operator.kind) ids in
  let vertex_centric =
    lazy
      (match kinds with
       | [ Ir.Operator.While { body; _ } ] ->
         Ir.Gas_check.body_is_vertex_centric body
       | _ -> false)
  in
  Result.is_ok (check backend (shape kinds ~vertex_centric))
