//! Prints the table of experiments.

pub(crate) fn main(_args: &crate::Args) {
    for e in super::EXPERIMENTS {
        let group = format!("{:?}", e.group);
        println!("{:<26} {group:<9} {}", e.name, e.about);
    }
}
