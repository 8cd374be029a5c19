use std::fmt;

/// Errors produced while constructing or parsing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node id was `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// An edge `(u, u)` was requested but self-loops are not representable
    /// in the paper's model (the diagonal never contributes: the condition
    /// `C(j) != C(i)` filters it).
    SelfLoop {
        /// The node the self-loop was attached to.
        node: usize,
    },
    /// An input line could not be parsed as an edge list entry.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of what went wrong.
        message: String,
    },
    /// A node count whose `n × n` adjacency matrix cannot be addressed or
    /// allocated.
    TooLarge {
        /// The requested node count.
        n: usize,
    },
    /// Two containers that must agree on `n` did not.
    SizeMismatch {
        /// Expected node count.
        expected: usize,
        /// Actual node count.
        actual: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop { node } => {
                write!(f, "self-loop ({node}, {node}) is not representable")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::TooLarge { n } => {
                write!(f, "a graph of {n} nodes is too large for its n x n adjacency matrix")
            }
            GraphError::SizeMismatch { expected, actual } => {
                write!(f, "size mismatch: expected {expected} nodes, got {actual}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_node_out_of_range() {
        let e = GraphError::NodeOutOfRange { node: 7, n: 4 };
        assert_eq!(e.to_string(), "node 7 out of range for graph with 4 nodes");
    }

    #[test]
    fn display_self_loop() {
        let e = GraphError::SelfLoop { node: 3 };
        assert_eq!(e.to_string(), "self-loop (3, 3) is not representable");
    }

    #[test]
    fn display_parse() {
        let e = GraphError::Parse {
            line: 2,
            message: "bad token".into(),
        };
        assert_eq!(e.to_string(), "parse error on line 2: bad token");
    }

    #[test]
    fn display_too_large() {
        let e = GraphError::TooLarge { n: 99 };
        assert_eq!(
            e.to_string(),
            "a graph of 99 nodes is too large for its n x n adjacency matrix"
        );
    }

    #[test]
    fn display_size_mismatch() {
        let e = GraphError::SizeMismatch {
            expected: 4,
            actual: 5,
        };
        assert_eq!(e.to_string(), "size mismatch: expected 4 nodes, got 5");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&GraphError::SelfLoop { node: 0 });
    }
}
