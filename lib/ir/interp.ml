exception Runtime_error of string

let runtime_error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

open Relation

type store = (string, Table.t) Hashtbl.t

let store_of_list bindings =
  let store = Hashtbl.create (List.length bindings) in
  List.iter (fun (name, table) -> Hashtbl.replace store name table) bindings;
  store

let eval_kind (kind : Operator.kind) (inputs : Table.t list) =
  match kind, inputs with
  | Operator.Select { pred }, [ t ] -> Kernel.select t pred
  | Operator.Project { columns }, [ t ] -> Kernel.project t columns
  | Operator.Map { target; expr }, [ t ] -> Kernel.map_column t ~target ~expr
  | Operator.Join { left_key; right_key }, [ l; r ] ->
    Kernel.join l r ~left_key ~right_key
  | Operator.Left_outer_join { left_key; right_key; defaults }, [ l; r ] ->
    Kernel.left_outer_join l r ~left_key ~right_key ~defaults
  | Operator.Semi_join { left_key; right_key }, [ l; r ] ->
    Kernel.semi_join l r ~left_key ~right_key
  | Operator.Anti_join { left_key; right_key }, [ l; r ] ->
    Kernel.anti_join l r ~left_key ~right_key
  | Operator.Cross, [ l; r ] -> Kernel.cross_join l r
  | Operator.Union, [ l; r ] -> Kernel.union_all l r
  | Operator.Intersect, [ l; r ] -> Kernel.intersect l r
  | Operator.Difference, [ l; r ] -> Kernel.difference l r
  | Operator.Distinct, [ t ] -> Kernel.distinct t
  | Operator.Group_by { keys; aggs }, [ t ] -> Kernel.group_by t ~keys ~aggs
  | Operator.Agg { aggs }, [ t ] -> Kernel.group_by t ~keys:[] ~aggs
  | Operator.Sort { by; descending }, [ t ] -> Table.sort_by ~descending t [ by ]
  | Operator.Top_k { by; descending; k }, [ t ] ->
    Kernel.top_k t ~by ~descending ~k
  | Operator.Udf u, ts ->
    if List.length ts <> u.arity then
      runtime_error "UDF %s expects %d inputs, got %d" u.udf_name u.arity
        (List.length ts);
    u.fn ts
  | Operator.Input _, _ ->
    runtime_error "eval_kind: INPUT must be resolved by the caller"
  | Operator.While _, _ ->
    runtime_error "eval_kind: WHILE must be expanded by the caller"
  | Operator.Black_box { description; _ }, _ ->
    runtime_error "black-box operator cannot be interpreted (%s)" description
  | ( Operator.Select _ | Operator.Project _ | Operator.Map _
    | Operator.Join _ | Operator.Left_outer_join _ | Operator.Semi_join _
    | Operator.Anti_join _ | Operator.Cross | Operator.Union
    | Operator.Intersect | Operator.Difference | Operator.Distinct
    | Operator.Group_by _ | Operator.Agg _ | Operator.Sort _
    | Operator.Top_k _ ), _ ->
    runtime_error "%s: wrong number of inputs (%d)" (Operator.kind_name kind)
      (List.length inputs)

let loop_finished condition ~iteration ~max_iterations ~current ~previous =
  Obs.Trace.with_span
    ~attrs:[ ("iteration", Obs.Trace.Int iteration) ]
    "while.test"
  @@ fun () ->
  if iteration >= max_iterations then true
  else
    match condition with
    | Operator.Fixed_iterations n -> iteration >= n
    | Operator.Until_empty r -> Table.is_empty (current r)
    | Operator.Until_fixpoint r ->
      Table.equal_unordered (current r) (previous r)

let rec run ~(store : store) (g : Dag.t) =
  let values : (int, Table.t) Hashtbl.t = Hashtbl.create 16 in
  let bindings = ref [] in
  List.iter
    (fun (n : Operator.node) ->
       let input_tables =
         List.map
           (fun i ->
              match Hashtbl.find_opt values i with
              | Some t -> t
              | None -> runtime_error "internal: node %d not yet evaluated" i)
           n.inputs
       in
       let result =
         match n.kind with
         | Operator.Input { relation } -> (
           match Hashtbl.find_opt store relation with
           | Some t -> t
           | None -> runtime_error "missing input relation %S" relation)
         | Operator.While { condition; max_iterations; body } ->
           run_while ~store ~condition ~max_iterations ~body input_tables
         | _ -> eval_kind n.kind input_tables
       in
       Hashtbl.replace values n.id result;
       bindings := (n.output, result) :: !bindings)
    g.nodes;
  List.rev !bindings

and run_while ~store ~condition ~max_iterations ~body input_tables =
  let body_inputs = Dag.sources body in
  if List.length body_inputs <> List.length input_tables then
    runtime_error "WHILE: body has %d inputs but %d were provided"
      (List.length body_inputs)
      (List.length input_tables);
  (* Current binding of every body input relation. Loop-carried ones are
     rebound after each iteration; the rest stay fixed (e.g. the edge
     relation of PageRank). *)
  let bound : (string, Table.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter2
    (fun (n : Operator.node) t ->
       match n.kind with
       | Operator.Input { relation } -> Hashtbl.replace bound relation t
       | _ -> assert false)
    body_inputs input_tables;
  let result = ref None in
  let rec iterate i =
    let iteration_store : store = Hashtbl.copy store in
    Hashtbl.iter (fun r t -> Hashtbl.replace iteration_store r t) bound;
    let iteration_bindings = run ~store:iteration_store body in
    (* a body node may legitimately re-produce a relation name it reads
       (loop carry); the newest binding wins *)
    let find r =
      match List.assoc_opt r (List.rev iteration_bindings) with
      | Some t -> t
      | None -> runtime_error "WHILE: body did not produce %S" r
    in
    let previous r =
      match Hashtbl.find_opt bound r with
      | Some t -> t
      | None -> runtime_error "WHILE: %S is not loop-carried" r
    in
    let first_output =
      match body.Operator.outputs with
      | id :: _ -> (Dag.node body id).Operator.output
      | [] -> runtime_error "WHILE: body has no outputs"
    in
    let finished =
      loop_finished condition ~iteration:i ~max_iterations ~current:find
        ~previous
    in
    (* rebind loop-carried relations for the next round *)
    List.iter
      (fun r -> Hashtbl.replace bound r (find r))
      body.loop_carried;
    result := Some (find first_output);
    if not finished then iterate (i + 1)
  in
  iterate 1;
  match !result with
  | Some t -> t
  | None -> assert false

let outputs ~store g =
  let bindings = run ~store g in
  List.map
    (fun id ->
       let name = (Dag.node g id).Operator.output in
       (name, List.assoc name (List.rev bindings)))
    g.Operator.outputs
