//! Table 1: neural networks used for evaluation — paper vs. this
//! reproduction.

use repro_bench::report::{comment, row};

fn main() {
    comment("Table 1: Neural networks used for evaluation.");
    comment(
        "paper_params = Table 1; our_params = instantiated proxy (substitutions: dnn::zoo docs)",
    );
    row(&[
        "task",
        "model",
        "paper_params",
        "our_params",
        "train_data",
        "batch_size",
        "epochs",
        "processes",
    ]);
    for r in dnn::zoo::table1() {
        row(&[
            r.task.to_string(),
            r.model.to_string(),
            r.paper_params.to_string(),
            r.our_params.to_string(),
            r.train_size.to_string(),
            r.batch_size.to_string(),
            r.epochs.to_string(),
            r.processes.to_string(),
        ]);
    }
}
