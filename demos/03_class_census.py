"""Landscape of the word classes, length by length.

Counts rich, trapezoidal, balanced, and Sturmian-palindrome words per
length over the binary alphabet, then mines the two interesting gaps:
words that are rich yet not trapezoidal (smallest members at length 5),
and trapezoidal yet not Sturmian (smallest members at length 4).

Run:  python3 demos/03_class_census.py
"""

from wordlab import census, find_class_members

MAX_LEN = 10


def main() -> None:
    table = census("ab", MAX_LEN)
    header = ["len", "total", "rich", "trap", "balanced", "spal", "B", "B'"]
    print("  ".join(h.rjust(6) for h in header))
    for row in table.rows():  # length, total, then the classes in the header's order
        print("  ".join(str(v).rjust(6) for v in row))
    print()

    print("rich but not trapezoidal (first appearance per length):")
    for n in range(1, 8):
        members = find_class_members("rich_not_trapezoidal", "ab", n)
        print(f"  length {n}: {len(members):>3} words   {members[:4]}")
    print()

    print("trapezoidal but not Sturmian (unbalanced trapezoids):")
    for n in range(1, 8):
        members = find_class_members("trapezoidal_not_sturmian", "ab", n)
        print(f"  length {n}: {len(members):>3} words   {members[:4]}")


if __name__ == "__main__":
    main()
